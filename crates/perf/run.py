#!/usr/bin/env python3
"""Build planetp-perf (the workspace member crates/perf), then run it.

BENCHMARK.json's command. Run from the root of a checkout:

    python3 crates/perf/run.py --workload search-warm --seed 1 --seconds 10 --trace 0
    python3 crates/perf/run.py compare A.json B.json
    python3 crates/perf/run.py test            (cargo test -p planetp-perf, same build)

It copies the workspace into <target>/stage and runs
`cargo build --release -p planetp-perf` there: first against the
published crates; where they cannot be fetched, again with
`--offline --config stand-ins/patch.toml`, which patches every external
crate to a stand-in under crates/perf/stand-ins. The binary is told
which it was (PLANETP_PERF_CRATES) and records it in its output. It
runs with the arguments given (`run` is implied when the first argument
is an option). <target> is $CARGO_TARGET_DIR, or .bench_build in the
checkout. See README.md for why the copy and the stand-ins exist.
"""

import os
import subprocess
import sys

# What the build reads, relative to the checkout root.
STAGED = ["Cargo.toml", "BENCHMARK.json", "crates", "suite", "examples", "tests"]

# crates/search/src/ipf.rs does not compile (E0282: `f.borrow()` on a
# `&&F` is ambiguous between `Borrow<F> for &F` and `Borrow<&F> for &F`).
# This change may not edit product sources, so the staged copy names the
# impl. Once the product line is fixed the replacement finds nothing to
# replace.
IPF_FILE = os.path.join("crates", "search", "src", "ipf.rs")
IPF_BROKEN = ".filter(|f| f.borrow().contains_hashed(&key))"
IPF_FIXED = ".filter(|f| Borrow::<BloomFilter>::borrow(*f).contains_hashed(&key))"


def staged_bytes(rel, path):
    with open(path, "rb") as f:
        data = f.read()
    if rel == IPF_FILE:
        data = data.replace(IPF_BROKEN.encode(), IPF_FIXED.encode())
    return data


def sync(root, stage):
    """Mirror STAGED into `stage`, touching only files whose bytes changed
    (cargo rebuilds on mtime)."""
    wanted = set()
    for top in STAGED:
        src = os.path.join(root, top)
        if os.path.isfile(src):
            files = [top]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(src):
                dirnames[:] = [d for d in dirnames if d != "target"]
                for name in filenames:
                    files.append(os.path.relpath(os.path.join(dirpath, name), root))
        for rel in files:
            wanted.add(rel)
            data = staged_bytes(rel, os.path.join(root, rel))
            dst = os.path.join(stage, rel)
            try:
                with open(dst, "rb") as f:
                    if f.read() == data:
                        continue
            except FileNotFoundError:
                os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(dst, "wb") as f:
                f.write(data)
    for dirpath, _, filenames in os.walk(stage):
        for name in filenames:
            path = os.path.join(dirpath, name)
            if os.path.relpath(path, stage) not in wanted and name != "Cargo.lock":
                os.remove(path)


def cargo(verb, stage, target, extra):
    """`cargo <verb> --release -p planetp-perf` in the staged workspace.
    Returns (exit code, which crates it was built against)."""
    command = ["cargo", verb, "--release", "--quiet", "-p", "planetp-perf"]
    # A registry that cannot be reached should say so at once.
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_RETRY="0", CARGO_HTTP_TIMEOUT="10")
    published = subprocess.run(
        command + extra, cwd=stage, env=env, stdout=sys.stderr, stderr=subprocess.PIPE, text=True
    )
    if published.returncode == 0:
        sys.stderr.write(published.stderr)
        return 0, "published"
    print("run.py: the published crates cannot be built here; using crates/perf/stand-ins", file=sys.stderr)
    patch = os.path.join("crates", "perf", "stand-ins", "patch.toml")
    env["PLANETP_PERF_CRATES"] = "stand-ins"
    standins = subprocess.run(
        command + ["--offline", "--config", patch] + extra, cwd=stage, env=env, stdout=sys.stderr
    )
    if standins.returncode != 0:
        sys.stderr.write("run.py: the build against the published crates had failed with:\n")
        sys.stderr.write(published.stderr)
    return standins.returncode, "stand-ins"


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        print("run.py: no planetp workspace here (run it from a checkout root)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    stage = os.path.join(target, "stage")
    sync(root, stage)
    args = sys.argv[1:]
    if args[:1] == ["test"]:
        return cargo("test", stage, target, args[1:])[0]
    code, crates = cargo("build", stage, target, [])
    if code != 0:
        return code
    if not args or args[0].startswith("-"):
        args = ["run"] + args
    if "--out" not in args and args[0] != "compare":
        args += ["--out", os.path.join(target, "perf")]
    binary = os.path.join(target, "release", "planetp-perf")
    env = dict(os.environ, PLANETP_PERF_CRATES=crates)
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
