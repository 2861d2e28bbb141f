//! Map functions for the built-in backends.
//!
//! These are the pluggable name/type converters the paper's templates
//! invoke with `-map var Ns::Fn` — "the use of a map makes it possible to
//! convert an IDL name into one that is suitable in the context of the
//! code that is being generated, changing `Heidi::A` to `HdA`, for
//! instance" (§4.1).
//!
//! Inputs are either `::`-scoped names (`Heidi::A`), type descriptors
//! (`objref:Heidi::S`, `sequence<long,4>`), or canonical constants (`0`,
//! `TRUE`, `enum:Heidi::Start`). Unrecognized inputs pass through
//! unchanged so templates can apply maps liberally.

use crate::typemap;
use heidl_est::TypeDesc;
use heidl_template::MapRegistry;

/// The unqualified final component of a `::`-scoped name.
fn local(name: &str) -> &str {
    name.rsplit("::").next().unwrap_or(name)
}

/// `Heidi::A` → `HdA`: the HeidiRMI class-name convention (Fig 3).
fn hd_class(name: &str) -> String {
    format!("Hd{}", local(name))
}

// ---- HeidiRMI C++ (the paper's custom mapping, Fig 3) -----------------

fn heidi_cpp_type(desc: &str) -> String {
    let Some(d) = TypeDesc::parse(desc) else {
        return desc.to_owned();
    };
    heidi_cpp_type_desc(&d)
}

fn heidi_cpp_type_desc(d: &TypeDesc) -> String {
    match d {
        TypeDesc::Primitive(p) => typemap::alternate(p).unwrap_or("void").to_owned(),
        TypeDesc::String(_) => "const char*".to_owned(),
        TypeDesc::Named(cat, name) => match cat.as_str() {
            // Object references and variable aggregates pass by pointer.
            "objref" | "struct" | "union" | "except" | "valias" => format!("{}*", hd_class(name)),
            // Enums and fixed-size aliases pass by value.
            "enum" | "alias" => hd_class(name),
            _ => name.clone(),
        },
        TypeDesc::Sequence(elem, _) => format!("HdList<{}>*", heidi_cpp_elem(elem)),
    }
}

/// The element type inside `HdList<...>` — Fig 3: `HdList<HdS>`, no
/// pointer on the template argument.
fn heidi_cpp_elem(d: &TypeDesc) -> String {
    match d {
        TypeDesc::Primitive(p) => typemap::alternate(p).unwrap_or("void").to_owned(),
        TypeDesc::String(_) => "HdString".to_owned(),
        TypeDesc::Named(_, name) => hd_class(name),
        TypeDesc::Sequence(elem, _) => format!("HdList<{}>", heidi_cpp_elem(elem)),
    }
}

fn heidi_cpp_const(value: &str) -> String {
    match value {
        "TRUE" => "XTrue".to_owned(),
        "FALSE" => "XFalse".to_owned(),
        v => match v.strip_prefix("enum:") {
            // Fig 3: `Heidi::Start` appears as the bare enumerator `Start`.
            Some(name) => local(name).to_owned(),
            None => v.to_owned(),
        },
    }
}

/// Marshaling call names on the generated `HdCall` (`putLong`, ...).
fn heidi_cpp_put(desc: &str) -> String {
    marshal_op("put", desc)
}

/// Unmarshaling expressions on the generated `HdCall` (`getLong()`, ...).
fn heidi_cpp_get(desc: &str) -> String {
    format!("{}()", marshal_op("get", desc))
}

fn marshal_op(prefix: &str, desc: &str) -> String {
    let suffix = match TypeDesc::parse(desc) {
        Some(TypeDesc::Primitive(p)) => match p.as_str() {
            "boolean" => "Bool".to_owned(),
            "octet" => "Octet".to_owned(),
            "char" => "Char".to_owned(),
            "short" => "Short".to_owned(),
            "ushort" => "UShort".to_owned(),
            "long" => "Long".to_owned(),
            "ulong" => "ULong".to_owned(),
            "longlong" => "LongLong".to_owned(),
            "ulonglong" => "ULongLong".to_owned(),
            "float" => "Float".to_owned(),
            "double" => "Double".to_owned(),
            other => capitalize(other),
        },
        Some(TypeDesc::String(_)) => "String".to_owned(),
        Some(TypeDesc::Named(cat, _)) => match cat.as_str() {
            "objref" => "Object".to_owned(),
            "enum" => "Enum".to_owned(),
            _ => "Value".to_owned(),
        },
        Some(TypeDesc::Sequence(..)) => "List".to_owned(),
        None => "Value".to_owned(),
    };
    format!("{prefix}{suffix}")
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// The `CPP::*` map functions of the HeidiRMI C++ backend (Fig 9's
/// namespace).
pub fn heidi_cpp_registry() -> MapRegistry {
    let mut r = MapRegistry::new();
    r.register("CPP::MapClassName", hd_class);
    r.register("CPP::MapType", heidi_cpp_type);
    r.register("CPP::MapReturnType", heidi_cpp_type);
    r.register("CPP::MapConst", heidi_cpp_const);
    r.register("CPP::MapSeqElem", |s| {
        TypeDesc::parse(s).map(|d| heidi_cpp_elem(&d)).unwrap_or_else(|| s.to_owned())
    });
    r.register("CPP::Capitalize", capitalize);
    r.register("CPP::MapFlatName", |s| s.replace("::", "_"));
    r.register("CPP::MarshalOp", heidi_cpp_put);
    r.register("CPP::ExtractOp", heidi_cpp_get);
    r
}

// ---- CORBA-prescribed C++ ----------------------------------------------

/// `Heidi::A` → `Heidi_A`: a flat C++ identifier (our simplification of
/// the nested-namespace mapping; see DESIGN.md).
fn corba_class(name: &str) -> String {
    name.replace("::", "_")
}

fn corba_cpp_type(desc: &str) -> String {
    let Some(d) = TypeDesc::parse(desc) else {
        return desc.to_owned();
    };
    match &d {
        TypeDesc::Primitive(p) => typemap::prescribed(p).unwrap_or("void").to_owned(),
        TypeDesc::String(_) => "char*".to_owned(),
        TypeDesc::Named(cat, name) => match cat.as_str() {
            "objref" => format!("{}_ptr", corba_class(name)),
            "struct" | "union" | "except" => format!("const {}&", corba_class(name)),
            _ => corba_class(name),
        },
        TypeDesc::Sequence(..) => "const CORBA::Sequence&".to_owned(),
    }
}

fn corba_cpp_const(value: &str) -> String {
    match value {
        "TRUE" => "1".to_owned(),
        "FALSE" => "0".to_owned(),
        v => match v.strip_prefix("enum:") {
            Some(name) => corba_class(name),
            None => v.to_owned(),
        },
    }
}

/// The `CORBA::*` map functions of the CORBA-prescribed C++ backend.
pub fn corba_cpp_registry() -> MapRegistry {
    let mut r = MapRegistry::new();
    r.register("CORBA::MapClassName", corba_class);
    r.register("CORBA::MapType", corba_cpp_type);
    r.register("CORBA::MapReturnType", corba_cpp_type);
    r.register("CORBA::MapConst", corba_cpp_const);
    r
}

// ---- Java (HeidiRMI-compatible mapping, §4.2) ---------------------------

fn java_type(desc: &str) -> String {
    let Some(d) = TypeDesc::parse(desc) else {
        return desc.to_owned();
    };
    match &d {
        TypeDesc::Primitive(p) => match p.as_str() {
            "boolean" => "boolean",
            "char" => "char",
            "octet" => "byte",
            "short" | "ushort" => "short",
            "long" | "ulong" => "int",
            "longlong" | "ulonglong" => "long",
            "float" => "float",
            "double" => "double",
            "any" => "Object",
            _ => "void",
        }
        .to_owned(),
        TypeDesc::String(_) => "String".to_owned(),
        TypeDesc::Named(cat, name) => match cat.as_str() {
            // Pre-generics Java, as in the paper's era: enums are int
            // constants, sequence aliases are Vectors.
            "enum" => "int".to_owned(),
            "valias" => "java.util.Vector".to_owned(),
            _ => local(name).to_owned(),
        },
        TypeDesc::Sequence(..) => "java.util.Vector".to_owned(),
    }
}

fn java_const(value: &str) -> String {
    match value {
        "TRUE" => "true".to_owned(),
        "FALSE" => "false".to_owned(),
        v => match v.strip_prefix("enum:") {
            Some(name) => local(name).to_owned(),
            None => v.to_owned(),
        },
    }
}

/// The `Java::*` map functions.
pub fn java_registry() -> MapRegistry {
    let mut r = MapRegistry::new();
    r.register("Java::MapClassName", |s| local(s).to_owned());
    r.register("Java::MapType", java_type);
    r.register("Java::MapReturnType", java_type);
    r.register("Java::MapConst", java_const);
    r
}

// ---- tcl (Fig 10) --------------------------------------------------------

fn tcl_op(prefix: &str, desc: &str) -> String {
    let suffix = match TypeDesc::parse(desc) {
        Some(TypeDesc::Primitive(p)) => match p.as_str() {
            "boolean" => "Bool",
            "float" | "double" => "Float",
            _ => "Long",
        }
        .to_owned(),
        Some(TypeDesc::String(_)) => "String".to_owned(),
        Some(TypeDesc::Named(cat, _)) => match cat.as_str() {
            "objref" => "Object".to_owned(),
            "enum" => "Long".to_owned(),
            _ => "String".to_owned(),
        },
        _ => "String".to_owned(),
    };
    format!("{prefix}{suffix}")
}

/// The `Tcl::*` map functions.
pub fn tcl_registry() -> MapRegistry {
    let mut r = MapRegistry::new();
    r.register("Tcl::MapClassName", |s| local(s).to_owned());
    r.register("Tcl::InsertOp", |s| tcl_op("insert", s));
    r.register("Tcl::ExtractOp", |s| tcl_op("extract", s));
    // "a, b, c" (a rendered List prop) → "a b c": a tcl argument list.
    r.register("Tcl::ArgList", |s| s.split(", ").collect::<Vec<_>>().join(" "));
    // "a, b, c" → "$a $b $c": forwarding arguments to the implementation.
    r.register("Tcl::DollarArgs", |s| {
        if s.is_empty() {
            String::new()
        } else {
            s.split(", ").map(|a| format!("${a}")).collect::<Vec<_>>().join(" ")
        }
    });
    r
}

// ---- Rust ---------------------------------------------------------------

fn rust_type(desc: &str) -> String {
    let Some(d) = TypeDesc::parse(desc) else {
        return desc.to_owned();
    };
    match &d {
        TypeDesc::Primitive(p) => match p.as_str() {
            "boolean" => "bool",
            "char" => "char",
            "octet" => "u8",
            "short" => "i16",
            "ushort" => "u16",
            "long" => "i32",
            "ulong" => "u32",
            "longlong" => "i64",
            "ulonglong" => "u64",
            "float" => "f32",
            "double" => "f64",
            "void" => "()",
            _ => "Vec<u8>", // `any`
        }
        .to_owned(),
        TypeDesc::String(_) => "String".to_owned(),
        TypeDesc::Named(cat, name) => match cat.as_str() {
            "objref" => "ObjectRef".to_owned(),
            _ => local(name).to_owned(),
        },
        TypeDesc::Sequence(elem, _) => format!("Vec<{}>", rust_type(&elem.to_string())),
    }
}

/// `put_long` / `get_long` style codec calls for primitives.
fn rust_codec_op(prefix: &str, desc: &str) -> String {
    let suffix = match TypeDesc::parse(desc) {
        Some(TypeDesc::Primitive(p)) => match p.as_str() {
            "boolean" => "bool",
            "octet" => "octet",
            "char" => "char",
            "short" => "short",
            "ushort" => "ushort",
            "long" => "long",
            "ulong" => "ulong",
            "longlong" => "longlong",
            "ulonglong" => "ulonglong",
            "float" => "float",
            "double" => "double",
            _ => "long",
        }
        .to_owned(),
        Some(TypeDesc::String(_)) => "string".to_owned(),
        _ => "long".to_owned(),
    };
    format!("{prefix}_{suffix}")
}

/// The element of a sequence descriptor (or the descriptor itself).
fn seq_elem(desc: &str) -> Option<TypeDesc> {
    match TypeDesc::parse(desc)? {
        TypeDesc::Sequence(elem, _) => Some(*elem),
        other => Some(other),
    }
}

/// How the templates marshal a sequence, by its element: `primitive`
/// (one bulk codec call per sequence), `string` or `enum` (an element
/// loop), else the element's category, which the rust mapping leaves
/// unmapped.
fn rust_seq_elem_kind(desc: &str) -> String {
    match seq_elem(desc) {
        Some(TypeDesc::Primitive(p)) if p != "any" && p != "void" => "primitive".to_owned(),
        Some(TypeDesc::Primitive(p)) => p,
        Some(TypeDesc::String(_)) => "string".to_owned(),
        Some(TypeDesc::Named(cat, _)) => cat,
        Some(TypeDesc::Sequence(..)) => "sequence".to_owned(),
        None => String::new(),
    }
}

/// The bulk codec call for a sequence of primitives: `put_double_seq`,
/// `get_long_seq`. Any other element kind names a method no codec has
/// (`put_struct_seq`), so an unmapped sequence fails to compile saying
/// what it is.
fn rust_seq_op(prefix: &str, desc: &str) -> String {
    match rust_seq_elem_kind(desc).as_str() {
        "primitive" => {
            let elem = seq_elem(desc).map(|e| e.to_string()).unwrap_or_default();
            format!("{}_seq", rust_codec_op(prefix, &elem))
        }
        kind => format!("{prefix}_{kind}_seq"),
    }
}

fn rust_const(value: &str) -> String {
    match value {
        "TRUE" => "true".to_owned(),
        "FALSE" => "false".to_owned(),
        v => v.to_owned(),
    }
}

/// The `Rust::*` map functions.
pub fn rust_registry() -> MapRegistry {
    let mut r = MapRegistry::new();
    r.register("Rust::MapClassName", |s| local(s).to_owned());
    r.register("Rust::MapType", rust_type);
    r.register("Rust::MapReturn", rust_type);
    r.register("Rust::MapConst", rust_const);
    r.register("Rust::SnakeCase", |s| {
        let mut out = String::new();
        for (i, c) in local(s).char_indices() {
            if c.is_uppercase() {
                if i > 0 {
                    out.push('_');
                }
                out.extend(c.to_lowercase());
            } else {
                out.push(c);
            }
        }
        out
    });
    r.register("Rust::MapConstType", |s| {
        if rust_type(s) == "String" {
            "&str".to_owned()
        } else {
            rust_type(s)
        }
    });
    r.register("Rust::PutOp", |s| rust_codec_op("put", s));
    r.register("Rust::GetOp", |s| rust_codec_op("get", s));
    r.register("Rust::SeqElemPut", |s| rust_seq_op("put", s));
    r.register("Rust::SeqElemGet", |s| rust_seq_op("get", s));
    r.register("Rust::SeqElemKind", rust_seq_elem_kind);
    r.register("Rust::SeqElemType", |s| {
        seq_elem(s).map(|e| rust_type(&e.to_string())).unwrap_or_else(|| s.to_owned())
    });
    // snake_case / lowercase IDL names → CamelCase Rust variant names.
    r.register("Rust::Capitalize", |s| local(s).split('_').map(capitalize).collect::<String>());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd_class_names_match_fig3() {
        assert_eq!(hd_class("Heidi::A"), "HdA");
        assert_eq!(hd_class("Heidi::Status"), "HdStatus");
        assert_eq!(hd_class("Heidi::SSequence"), "HdSSequence");
        assert_eq!(hd_class("S"), "HdS");
    }

    #[test]
    fn heidi_cpp_types_match_fig3() {
        // Every parameter type visible in Fig 3's generated class:
        assert_eq!(heidi_cpp_type("objref:Heidi::A"), "HdA*");
        assert_eq!(heidi_cpp_type("objref:Heidi::S"), "HdS*");
        assert_eq!(heidi_cpp_type("long"), "long");
        assert_eq!(heidi_cpp_type("enum:Heidi::Status"), "HdStatus");
        assert_eq!(heidi_cpp_type("boolean"), "XBool");
        assert_eq!(heidi_cpp_type("valias:Heidi::SSequence"), "HdSSequence*");
        assert_eq!(heidi_cpp_type("void"), "void");
    }

    #[test]
    fn heidi_cpp_sequence_elements_match_fig3() {
        // Fig 3: typedef HdList<HdS> HdSSequence — no pointer inside.
        assert_eq!(heidi_cpp_type("sequence<objref:Heidi::S>"), "HdList<HdS>*");
        let d = TypeDesc::parse("sequence<objref:Heidi::S>").unwrap();
        let TypeDesc::Sequence(elem, _) = d else { panic!() };
        assert_eq!(heidi_cpp_elem(&elem), "HdS");
        assert_eq!(heidi_cpp_type("sequence<long>"), "HdList<long>*");
        assert_eq!(heidi_cpp_type("sequence<sequence<boolean>>"), "HdList<HdList<XBool>>*");
    }

    #[test]
    fn heidi_cpp_consts_match_fig3() {
        assert_eq!(heidi_cpp_const("0"), "0");
        assert_eq!(heidi_cpp_const("TRUE"), "XTrue");
        assert_eq!(heidi_cpp_const("FALSE"), "XFalse");
        assert_eq!(heidi_cpp_const("enum:Heidi::Start"), "Start");
        assert_eq!(heidi_cpp_const(""), "");
    }

    #[test]
    fn heidi_cpp_marshal_ops() {
        assert_eq!(heidi_cpp_put("long"), "putLong");
        assert_eq!(heidi_cpp_put("string"), "putString");
        assert_eq!(heidi_cpp_put("objref:Heidi::S"), "putObject");
        assert_eq!(heidi_cpp_put("sequence<long>"), "putList");
        assert_eq!(heidi_cpp_get("boolean"), "getBool()");
        assert_eq!(heidi_cpp_get("enum:Heidi::Status"), "getEnum()");
    }

    #[test]
    fn corba_cpp_types_match_table1() {
        assert_eq!(corba_cpp_type("long"), "CORBA::Long");
        assert_eq!(corba_cpp_type("boolean"), "CORBA::Boolean");
        assert_eq!(corba_cpp_type("float"), "CORBA::Float");
        assert_eq!(corba_cpp_type("objref:Heidi::A"), "Heidi_A_ptr");
        assert_eq!(corba_cpp_type("enum:Heidi::Status"), "Heidi_Status");
        assert_eq!(corba_cpp_const("TRUE"), "1");
        assert_eq!(corba_cpp_const("enum:Heidi::Start"), "Heidi_Start");
    }

    #[test]
    fn java_types() {
        assert_eq!(java_type("long"), "int");
        assert_eq!(java_type("boolean"), "boolean");
        assert_eq!(java_type("string"), "String");
        assert_eq!(java_type("objref:Heidi::A"), "A");
        assert_eq!(java_type("enum:Heidi::Status"), "int");
        assert_eq!(java_type("sequence<long>"), "java.util.Vector");
        assert_eq!(java_type("valias:Heidi::SSequence"), "java.util.Vector");
        assert_eq!(java_const("TRUE"), "true");
        assert_eq!(java_const("enum:Heidi::Start"), "Start");
    }

    #[test]
    fn tcl_ops_match_fig10() {
        // Fig 10: `$c insertString $text` and `[$c extractString]`.
        assert_eq!(tcl_op("insert", "string"), "insertString");
        assert_eq!(tcl_op("extract", "string"), "extractString");
        assert_eq!(tcl_op("insert", "long"), "insertLong");
        assert_eq!(tcl_op("insert", "boolean"), "insertBool");
        assert_eq!(tcl_op("insert", "objref:X"), "insertObject");
    }

    #[test]
    fn tcl_arg_lists() {
        let r = tcl_registry();
        assert_eq!(r.apply("Tcl::ArgList", "a, b, c").unwrap(), "a b c");
        assert_eq!(r.apply("Tcl::ArgList", "").unwrap(), "");
        assert_eq!(r.apply("Tcl::DollarArgs", "a, b").unwrap(), "$a $b");
        assert_eq!(r.apply("Tcl::DollarArgs", "").unwrap(), "");
    }

    #[test]
    fn rust_types() {
        assert_eq!(rust_type("long"), "i32");
        assert_eq!(rust_type("boolean"), "bool");
        assert_eq!(rust_type("string"), "String");
        assert_eq!(rust_type("objref:Heidi::A"), "ObjectRef");
        assert_eq!(rust_type("enum:Heidi::Status"), "Status");
        assert_eq!(rust_type("sequence<long>"), "Vec<i32>");
        assert_eq!(rust_type("sequence<sequence<double>>"), "Vec<Vec<f64>>");
        assert_eq!(rust_type("void"), "()");
    }

    #[test]
    fn rust_codec_ops() {
        assert_eq!(rust_codec_op("put", "long"), "put_long");
        assert_eq!(rust_codec_op("get", "string"), "get_string");
        assert_eq!(rust_codec_op("put", "ulonglong"), "put_ulonglong");
        assert_eq!(rust_seq_op("put", "sequence<double>"), "put_double_seq");
        assert_eq!(rust_seq_op("get", "sequence<boolean,8>"), "get_bool_seq");
        assert_eq!(rust_seq_op("put", "sequence<struct:M::S>"), "put_struct_seq");
    }

    #[test]
    fn rust_seq_elem_kinds() {
        assert_eq!(rust_seq_elem_kind("sequence<ulonglong>"), "primitive");
        assert_eq!(rust_seq_elem_kind("sequence<string>"), "string");
        assert_eq!(rust_seq_elem_kind("sequence<enum:M::Color>"), "enum");
        assert_eq!(rust_seq_elem_kind("sequence<any>"), "any");
        assert_eq!(rust_seq_elem_kind("sequence<sequence<long>>"), "sequence");
        let r = rust_registry();
        assert_eq!(r.apply("Rust::SeqElemType", "sequence<enum:M::Color>").unwrap(), "Color");
        assert_eq!(r.apply("Rust::SeqElemType", "sequence<octet>").unwrap(), "u8");
    }

    #[test]
    fn unparsable_descriptors_pass_through() {
        assert_eq!(heidi_cpp_type("SomethingOdd"), "SomethingOdd");
        assert_eq!(corba_cpp_type("SomethingOdd"), "SomethingOdd");
        assert_eq!(java_type("SomethingOdd"), "SomethingOdd");
        assert_eq!(rust_type("SomethingOdd"), "SomethingOdd");
    }

    #[test]
    fn registries_are_complete() {
        for (reg, names) in [
            (
                heidi_cpp_registry(),
                vec!["CPP::MapClassName", "CPP::MapType", "CPP::MapConst", "CPP::MarshalOp"],
            ),
            (corba_cpp_registry(), vec!["CORBA::MapClassName", "CORBA::MapType"]),
            (java_registry(), vec!["Java::MapClassName", "Java::MapType"]),
            (tcl_registry(), vec!["Tcl::InsertOp", "Tcl::ArgList"]),
            (rust_registry(), vec!["Rust::MapType", "Rust::PutOp", "Rust::SeqElemGet"]),
        ] {
            for n in names {
                assert!(reg.get(n).is_some(), "missing {n}");
            }
        }
    }
}
