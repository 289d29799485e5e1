//! Offline stand-in for `serde_derive`: `#[derive(Serialize,
//! Deserialize)]` for the `serde` stand-in, written against the bare
//! `proc_macro` API (no `syn`/`quote` to fetch).
//!
//! Supported: structs (named, tuple, unit) and enums (unit, newtype,
//! tuple and struct variants), type and lifetime parameters, and the
//! attributes `default`, `skip`, `skip_serializing_if`, `rename`,
//! `rename_all` and (on enums of unit/struct variants) `tag`. Anything
//! else is a compile error rather than a silent difference.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::collections::BTreeSet;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Input) -> Result<String, String>) -> TokenStream {
    let code = parse_input(input)
        .and_then(|parsed| gen(&parsed))
        .unwrap_or_else(|msg| format!("compile_error!({msg:?});"));
    code.parse()
        .expect("the derive stand-in generated unparsable code")
}

// ----------------------------------------------------------------------
// Parsed form
// ----------------------------------------------------------------------

#[derive(Default)]
struct Attrs {
    default: bool,
    skip: bool,
    skip_serializing_if: Option<String>,
    rename: Option<String>,
    rename_all: Option<String>,
    tag: Option<String>,
}

struct Field {
    /// Rust identifier (`None` for tuple fields).
    ident: Option<String>,
    /// Type, flattened to its tokens (for bound inference only).
    ty: Vec<TokenTree>,
    attrs: Attrs,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Variant {
    ident: String,
    shape: Shape,
    attrs: Attrs,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Generics {
    /// Declarations as written, defaults stripped: `P: Payload`, `'a`.
    decls: Vec<String>,
    /// Bare names to instantiate the type with: `P`, `'a`.
    args: Vec<String>,
    /// Names of the type parameters among `args`.
    type_params: Vec<String>,
    /// Predicates of the written `where` clause, if any.
    where_preds: String,
}

struct Input {
    ident: String,
    generics: Generics,
    body: Body,
    attrs: Attrs,
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Self {
            toks: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c)
    }

    fn is_ident(&self, name: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == name)
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(i)) => Ok(i.to_string()),
            other => Err(format!(
                "serde stand-in: expected an identifier, found {other:?}"
            )),
        }
    }

    /// Leading `#[...]` attributes; `#[serde(...)]` ones are decoded.
    fn attrs(&mut self) -> Result<Attrs, String> {
        let mut attrs = Attrs::default();
        while self.is_punct('#') {
            self.pos += 1;
            let Some(TokenTree::Group(g)) = self.next() else {
                return Err("serde stand-in: malformed attribute".into());
            };
            let mut inner = Cursor::new(g.stream());
            if inner.is_ident("serde") {
                inner.pos += 1;
                let Some(TokenTree::Group(list)) = inner.next() else {
                    return Err("serde stand-in: expected #[serde(...)]".into());
                };
                parse_serde_meta(list.stream(), &mut attrs)?;
            }
        }
        Ok(attrs)
    }

    /// `pub`, `pub(crate)`, ... — skipped.
    fn visibility(&mut self) {
        if self.is_ident("pub") {
            self.pos += 1;
            if let Some(TokenTree::Group(g)) = self.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    self.pos += 1;
                }
            }
        }
    }
}

fn parse_serde_meta(stream: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    for item in split_commas(stream.into_iter().collect()) {
        let mut c = Cursor { toks: item, pos: 0 };
        let key = c.ident()?;
        let value = if c.is_punct('=') {
            c.pos += 1;
            match c.next() {
                Some(TokenTree::Literal(l)) => {
                    let text = l.to_string();
                    let text = text
                        .strip_prefix('"')
                        .and_then(|t| t.strip_suffix('"'))
                        .ok_or("serde stand-in: attribute values must be plain strings")?;
                    Some(text.to_string())
                }
                _ => return Err("serde stand-in: attribute values must be plain strings".into()),
            }
        } else {
            None
        };
        match (key.as_str(), value) {
            ("default", None) => attrs.default = true,
            ("skip", None) => attrs.skip = true,
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("rename_all", Some(v)) => attrs.rename_all = Some(v),
            ("tag", Some(v)) => attrs.tag = Some(v),
            (other, _) => {
                return Err(format!(
                    "serde stand-in: unsupported attribute `{other}` (see crates/perf/README.md)"
                ))
            }
        }
    }
    Ok(())
}

/// Split on commas that sit outside `<...>` (bracketed groups are
/// single token trees already). Empty trailing pieces are dropped.
fn split_commas(toks: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0i32;
    let mut after_dash = false;
    for t in toks {
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                // `->` in a function type closes nothing.
                '>' if !after_dash => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    after_dash = false;
                    continue;
                }
                _ => {}
            }
            after_dash = p.as_char() == '-';
        } else {
            after_dash = false;
        }
        parts.last_mut().expect("never empty").push(t);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

fn tokens_to_string(toks: &[TokenTree]) -> String {
    toks.iter().cloned().collect::<TokenStream>().to_string()
}

fn parse_generics(c: &mut Cursor) -> Result<Generics, String> {
    let mut g = Generics {
        decls: Vec::new(),
        args: Vec::new(),
        type_params: Vec::new(),
        where_preds: String::new(),
    };
    if !c.is_punct('<') {
        return Ok(g);
    }
    c.pos += 1;
    let mut depth = 1;
    let mut inner = Vec::new();
    let mut after_dash = false;
    loop {
        let t = c.next().ok_or("serde stand-in: unclosed generics")?;
        if let TokenTree::Punct(p) = &t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !after_dash => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            after_dash = p.as_char() == '-';
        } else {
            after_dash = false;
        }
        inner.push(t);
    }
    for param in split_commas(inner) {
        // Strip a default (`= T`): it may not be repeated on an impl.
        let eq = param
            .iter()
            .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '='));
        let decl = &param[..eq.unwrap_or(param.len())];
        match &decl[0] {
            TokenTree::Punct(p) if p.as_char() == '\'' => {
                g.args.push(tokens_to_string(&decl[..2]));
            }
            TokenTree::Ident(i) if i.to_string() == "const" => {
                return Err("serde stand-in: const generics are not supported".into());
            }
            TokenTree::Ident(i) => {
                g.args.push(i.to_string());
                g.type_params.push(i.to_string());
            }
            _ => return Err("serde stand-in: unrecognised generic parameter".into()),
        }
        g.decls.push(tokens_to_string(decl));
    }
    Ok(g)
}

/// A `where` clause up to (not including) the body or the `;`.
fn parse_where(c: &mut Cursor) -> String {
    if !c.is_ident("where") {
        return String::new();
    }
    c.pos += 1;
    let start = c.pos;
    while let Some(t) = c.peek() {
        let stop = match t {
            TokenTree::Group(g) => g.delimiter() == Delimiter::Brace,
            TokenTree::Punct(p) => p.as_char() == ';',
            _ => false,
        };
        if stop {
            break;
        }
        c.pos += 1;
    }
    tokens_to_string(&c.toks[start..c.pos])
}

fn parse_fields(stream: TokenStream, named: bool) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for part in split_commas(stream.into_iter().collect()) {
        let mut c = Cursor { toks: part, pos: 0 };
        let attrs = c.attrs()?;
        c.visibility();
        let ident = if named {
            let name = c.ident()?;
            if !c.is_punct(':') {
                return Err("serde stand-in: expected `:` after a field name".into());
            }
            c.pos += 1;
            Some(name)
        } else {
            None
        };
        fields.push(Field {
            ident,
            ty: c.toks[c.pos..].to_vec(),
            attrs,
        });
    }
    Ok(fields)
}

fn parse_shape(c: &mut Cursor) -> Result<Shape, String> {
    match c.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let stream = g.stream();
            c.pos += 1;
            Ok(Shape::Named(parse_fields(stream, true)?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let stream = g.stream();
            c.pos += 1;
            Ok(Shape::Tuple(parse_fields(stream, false)?))
        }
        _ => Ok(Shape::Unit),
    }
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let mut c = Cursor::new(input);
    let attrs = c.attrs()?;
    c.visibility();
    let kind = c.ident()?;
    let ident = c.ident()?;
    let mut generics = parse_generics(&mut c)?;
    generics.where_preds = parse_where(&mut c);
    let body = match kind.as_str() {
        "struct" => {
            let shape = parse_shape(&mut c)?;
            // Tuple structs put their where clause after the fields.
            if generics.where_preds.is_empty() {
                generics.where_preds = parse_where(&mut c);
            }
            Body::Struct(shape)
        }
        "enum" => {
            let Some(TokenTree::Group(g)) = c.next() else {
                return Err("serde stand-in: expected an enum body".into());
            };
            let mut variants = Vec::new();
            for part in split_commas(g.stream().into_iter().collect()) {
                let mut vc = Cursor { toks: part, pos: 0 };
                let attrs = vc.attrs()?;
                let ident = vc.ident()?;
                let shape = parse_shape(&mut vc)?;
                variants.push(Variant {
                    ident,
                    shape,
                    attrs,
                });
            }
            Body::Enum(variants)
        }
        other => return Err(format!("serde stand-in: cannot derive for `{other}`")),
    };
    Ok(Input {
        ident,
        generics,
        body,
        attrs,
    })
}

// ----------------------------------------------------------------------
// Naming
// ----------------------------------------------------------------------

/// Split a Rust identifier into lowercase words (`peers_shed`,
/// `BloomUpdate`).
fn words(ident: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for piece in ident.split('_').filter(|p| !p.is_empty()) {
        let mut current = String::new();
        for ch in piece.chars() {
            if ch.is_uppercase() && !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
            current.extend(ch.to_lowercase());
        }
        out.push(current);
    }
    out
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

fn apply_rename_all(rule: &str, ident: &str) -> Result<String, String> {
    let w = words(ident);
    Ok(match rule {
        "lowercase" => w.concat(),
        "UPPERCASE" => w.concat().to_uppercase(),
        "snake_case" => w.join("_"),
        "SCREAMING_SNAKE_CASE" => w.join("_").to_uppercase(),
        "kebab-case" => w.join("-"),
        "SCREAMING-KEBAB-CASE" => w.join("-").to_uppercase(),
        "PascalCase" => w.iter().map(|x| capitalize(x)).collect(),
        "camelCase" => w
            .iter()
            .enumerate()
            .map(|(i, x)| if i == 0 { x.clone() } else { capitalize(x) })
            .collect(),
        other => return Err(format!("serde stand-in: unknown rename_all rule `{other}`")),
    })
}

/// The JSON name of a field or variant.
fn wire_name(ident: &str, own: &Attrs, rename_all: Option<&String>) -> Result<String, String> {
    let plain = ident.strip_prefix("r#").unwrap_or(ident);
    match (&own.rename, rename_all) {
        (Some(name), _) => Ok(name.clone()),
        (None, Some(rule)) => apply_rename_all(rule, plain),
        (None, None) => Ok(plain.to_string()),
    }
}

// ----------------------------------------------------------------------
// Bounds
// ----------------------------------------------------------------------

/// Type parameters (`P`) and their associated types (`P::Delta`)
/// mentioned in `toks` — what the impl must bound, as serde_derive
/// infers it.
fn collect_bounded(toks: &[TokenTree], params: &[String], out: &mut BTreeSet<String>) {
    let mut i = 0;
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Group(g) => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                collect_bounded(&inner, params, out);
            }
            TokenTree::Ident(id) if params.contains(&id.to_string()) => {
                let colon = |t: Option<&TokenTree>| matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == ':');
                match (
                    colon(toks.get(i + 1)),
                    colon(toks.get(i + 2)),
                    toks.get(i + 3),
                ) {
                    (true, true, Some(TokenTree::Ident(assoc))) => {
                        out.insert(format!("{id}::{assoc}"));
                        i += 3;
                    }
                    _ => {
                        out.insert(id.to_string());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

fn shape_fields(shape: &Shape) -> &[Field] {
    match shape {
        Shape::Named(f) | Shape::Tuple(f) => f,
        Shape::Unit => &[],
    }
}

fn all_fields(body: &Body) -> Vec<&Field> {
    match body {
        Body::Struct(s) => shape_fields(s).iter().collect(),
        Body::Enum(vs) => vs.iter().flat_map(|v| shape_fields(&v.shape)).collect(),
    }
}

/// `impl<...> Trait for Name<...> where ...` up to the opening brace.
fn impl_header(input: &Input, trait_path: &str, lifetime: Option<&str>) -> String {
    let g = &input.generics;
    let mut decls: Vec<String> = lifetime.iter().map(|l| l.to_string()).collect();
    decls.extend(g.decls.iter().cloned());
    let mut bounded = BTreeSet::new();
    for f in all_fields(&input.body) {
        if !f.attrs.skip {
            collect_bounded(&f.ty, &g.type_params, &mut bounded);
        }
    }
    let mut preds: Vec<String> = bounded
        .iter()
        .map(|b| format!("{b}: {trait_path}"))
        .collect();
    if !g.where_preds.is_empty() {
        preds.push(g.where_preds.trim_end_matches(',').to_string());
    }
    let mut header = String::from("impl");
    if !decls.is_empty() {
        header += &format!("<{}>", decls.join(", "));
    }
    header += &format!(" {trait_path} for {}", input.ident);
    if !g.args.is_empty() {
        header += &format!("<{}>", g.args.join(", "));
    }
    if !preds.is_empty() {
        header += &format!(" where {}", preds.join(", "));
    }
    header
}

// ----------------------------------------------------------------------
// Serialize
// ----------------------------------------------------------------------

/// Statements writing `"name": value` for every named field; `access`
/// maps a field identifier to the expression holding a reference to it.
fn ser_named_fields(
    fields: &[Field],
    rename_all: Option<&String>,
    access: impl Fn(&str) -> String,
) -> Result<String, String> {
    let mut code = String::new();
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let ident = f.ident.as_deref().expect("named field");
        let name = wire_name(ident, &f.attrs, rename_all)?;
        let value = access(ident);
        let write = format!("w.key({name:?}); ::serde::Serialize::serialize({value}, w);");
        match &f.attrs.skip_serializing_if {
            Some(pred) => code += &format!("if !{pred}({value}) {{ {write} }}"),
            None => code += &write,
        }
    }
    Ok(code)
}

fn ser_tuple_fields(bindings: &[String]) -> String {
    let mut code = String::from("w.begin_array();");
    for b in bindings {
        code += &format!("w.element(); ::serde::Serialize::serialize({b}, w);");
    }
    code + "w.end_array();"
}

fn gen_serialize(input: &Input) -> Result<String, String> {
    let rename_all = input.attrs.rename_all.as_ref();
    let body = match &input.body {
        Body::Struct(Shape::Named(fields)) => format!(
            "w.begin_object(); {} w.end_object();",
            ser_named_fields(fields, rename_all, |f| format!("&self.{f}"))?
        ),
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            "::serde::Serialize::serialize(&self.0, w);".to_string()
        }
        Body::Struct(Shape::Tuple(fields)) => {
            let bindings: Vec<String> = (0..fields.len()).map(|i| format!("&self.{i}")).collect();
            ser_tuple_fields(&bindings)
        }
        Body::Struct(Shape::Unit) => "w.null();".to_string(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let name = wire_name(&v.ident, &v.attrs, rename_all)?;
                let path = format!("{}::{}", input.ident, v.ident);
                let field_rule = v.attrs.rename_all.as_ref();
                let arm = match (&v.shape, &input.attrs.tag) {
                    (Shape::Unit, None) => format!("{path} => w.str({name:?}),"),
                    (Shape::Unit, Some(tag)) => format!(
                        "{path} => {{ w.begin_object(); w.key({tag:?}); w.str({name:?}); w.end_object(); }}"
                    ),
                    (Shape::Named(fields), tag) => {
                        let binds: Vec<&str> =
                            fields.iter().map(|f| f.ident.as_deref().expect("named")).collect();
                        let inner = ser_named_fields(fields, field_rule, |f| f.to_string())?;
                        let open = match tag {
                            Some(tag) => format!("w.begin_object(); w.key({tag:?}); w.str({name:?});"),
                            None => format!("w.begin_object(); w.key({name:?}); w.begin_object();"),
                        };
                        let close = if tag.is_some() {
                            "w.end_object();"
                        } else {
                            "w.end_object(); w.end_object();"
                        };
                        format!(
                            "{path} {{ {} }} => {{ {open} {inner} {close} }}",
                            binds.join(", ")
                        )
                    }
                    (Shape::Tuple(_), Some(_)) => {
                        return Err(
                            "serde stand-in: `tag` supports only unit and struct variants".into(),
                        )
                    }
                    (Shape::Tuple(fields), None) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("f{i}")).collect();
                        let inner = if binds.len() == 1 {
                            "::serde::Serialize::serialize(f0, w);".to_string()
                        } else {
                            ser_tuple_fields(&binds)
                        };
                        format!(
                            "{path}({}) => {{ w.begin_object(); w.key({name:?}); {inner} w.end_object(); }}",
                            binds.join(", ")
                        )
                    }
                };
                arms += &arm;
            }
            if variants.is_empty() {
                "match *self {}".to_string()
            } else {
                format!("match self {{ {arms} }}")
            }
        }
    };
    Ok(format!(
        "{} {{ #[allow(unused_variables)] \
             fn serialize(&self, w: &mut ::serde::ser::Writer) {{ {body} }} }}",
        impl_header(input, "::serde::Serialize", None)
    ))
}

// ----------------------------------------------------------------------
// Deserialize
// ----------------------------------------------------------------------

/// A block expression that parses the object at the cursor into the
/// named fields of `ctor`. Unknown keys are skipped.
fn de_named_fields(
    ctor: &str,
    fields: &[Field],
    rename_all: Option<&String>,
    container_default: bool,
) -> Result<String, String> {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    for (i, f) in fields.iter().enumerate() {
        let ident = f.ident.as_deref().expect("named field");
        if f.attrs.skip {
            build += &format!("{ident}: ::std::default::Default::default(),");
            continue;
        }
        let name = wire_name(ident, &f.attrs, rename_all)?;
        slots += &format!("let mut slot{i} = ::std::option::Option::None;");
        arms += &format!(
            "{name:?} => slot{i} = ::std::option::Option::Some(::serde::Deserialize::deserialize(r)?),"
        );
        let absent = if f.attrs.default || container_default {
            "::std::default::Default::default()".to_string()
        } else {
            format!("::serde::Deserialize::missing({name:?})?")
        };
        build += &format!(
            "{ident}: match slot{i} {{ ::std::option::Option::Some(v) => v, ::std::option::Option::None => {absent} }},"
        );
    }
    Ok(format!(
        "{{ {slots} r.begin_object()?; let mut first = true; \
         while let ::std::option::Option::Some(key) = r.object_next(&mut first)? {{ \
             match &*key {{ {arms} _ => r.skip_value()?, }} \
         }} \
         {ctor} {{ {build} }} }}"
    ))
}

/// A block expression that parses the array at the cursor into the
/// positional fields of `ctor`.
fn de_tuple_fields(ctor: &str, len: usize) -> String {
    let mut items = String::new();
    for _ in 0..len {
        items += "if r.array_next(&mut first)? { ::serde::Deserialize::deserialize(r)? } \
                  else { return ::std::result::Result::Err(r.error(\"too few elements\")); },";
    }
    format!(
        "{{ r.begin_array()?; let mut first = true; let value = {ctor}({items}); \
         if r.array_next(&mut first)? {{ \
             return ::std::result::Result::Err(r.error(\"too many elements\")); \
         }} value }}"
    )
}

fn gen_deserialize(input: &Input) -> Result<String, String> {
    let rename_all = input.attrs.rename_all.as_ref();
    let name = &input.ident;
    let body = match &input.body {
        Body::Struct(Shape::Named(fields)) => format!(
            "::std::result::Result::Ok({})",
            de_named_fields(name, fields, rename_all, input.attrs.default)?
        ),
        Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(r)?))")
        }
        Body::Struct(Shape::Tuple(fields)) => format!(
            "::std::result::Result::Ok({})",
            de_tuple_fields(name, fields.len())
        ),
        Body::Struct(Shape::Unit) => format!(
            "if r.null()? {{ ::std::result::Result::Ok({name}) }} \
             else {{ ::std::result::Result::Err(r.error(\"expected null\")) }}"
        ),
        Body::Enum(variants) => match &input.attrs.tag {
            Some(tag) => {
                let mut arms = String::new();
                for v in variants {
                    let wire = wire_name(&v.ident, &v.attrs, rename_all)?;
                    let path = format!("{name}::{}", v.ident);
                    let value = match &v.shape {
                        Shape::Unit => format!("{{ r.skip_value()?; {path} }}"),
                        Shape::Named(fields) => {
                            de_named_fields(&path, fields, v.attrs.rename_all.as_ref(), false)?
                        }
                        Shape::Tuple(_) => {
                            return Err(
                                "serde stand-in: `tag` supports only unit and struct variants"
                                    .into(),
                            )
                        }
                    };
                    arms += &format!("{wire:?} => ::std::result::Result::Ok({value}),");
                }
                format!(
                    "let variant = r.find_tag({tag:?})?; \
                     match variant.as_str() {{ {arms} \
                         other => ::std::result::Result::Err(::serde::de::Error::unknown_variant(other)), }}"
                )
            }
            None => {
                let mut unit_arms = String::new();
                let mut keyed_arms = String::new();
                for v in variants {
                    let wire = wire_name(&v.ident, &v.attrs, rename_all)?;
                    let path = format!("{name}::{}", v.ident);
                    let value = match &v.shape {
                        Shape::Unit => {
                            unit_arms += &format!("{wire:?} => ::std::result::Result::Ok({path}),");
                            format!(
                                "{{ if !r.null()? {{ \
                                     return ::std::result::Result::Err(r.error(\"expected null\")); \
                                 }} {path} }}"
                            )
                        }
                        Shape::Named(fields) => {
                            de_named_fields(&path, fields, v.attrs.rename_all.as_ref(), false)?
                        }
                        Shape::Tuple(fields) if fields.len() == 1 => {
                            format!("{path}(::serde::Deserialize::deserialize(r)?)")
                        }
                        Shape::Tuple(fields) => de_tuple_fields(&path, fields.len()),
                    };
                    keyed_arms += &format!("{wire:?} => {value},");
                }
                format!(
                    "if r.peek() == ::std::option::Option::Some(b'\"') {{ \
                         let variant = r.str()?; \
                         return match &*variant {{ {unit_arms} \
                             other => ::std::result::Result::Err(::serde::de::Error::unknown_variant(other)), }}; \
                     }} \
                     r.begin_object()?; \
                     let mut first = true; \
                     let ::std::option::Option::Some(key) = r.object_next(&mut first)? else {{ \
                         return ::std::result::Result::Err(r.error(\"expected a variant\")); \
                     }}; \
                     let value = match &*key {{ {keyed_arms} \
                         other => return ::std::result::Result::Err(::serde::de::Error::unknown_variant(other)), }}; \
                     if r.object_next(&mut first)?.is_some() {{ \
                         return ::std::result::Result::Err(r.error(\"expected a single variant\")); \
                     }} \
                     ::std::result::Result::Ok(value)"
                )
            }
        },
    };
    Ok(format!(
        "{} {{ fn deserialize(r: &mut ::serde::de::Reader<'de>) \
             -> ::std::result::Result<Self, ::serde::de::Error> {{ {body} }} }}",
        impl_header(input, "::serde::Deserialize<'de>", Some("'de"))
    ))
}
