//! Base types, atoms and signatures.
//!
//! The paper assumes "a database instance may be defined over a signature Σ,
//! namely a collection of base types with interpreted functions and
//! predicates", where Σ always contains `bool` (Section 2, first
//! paragraph). Classical genericity treats data values as *uninterpreted*;
//! the paper's generalization keeps several interpreted base types (`int`
//! with `even`, `>`, constants such as `7`, …) side by side with abstract
//! domains of uninterpreted atoms. We model both.

use std::fmt;

use crate::Value;

/// Boxed implementation of an interpreted function symbol: `None` outside
/// the function's domain.
pub type FnImpl = Box<dyn Fn(&[Value]) -> Option<Value> + Send + Sync>;
/// Boxed implementation of an interpreted predicate symbol: `None` outside
/// the predicate's domain.
pub type PredImpl = Box<dyn Fn(&[Value]) -> Option<bool> + Send + Sync>;

/// Identifier of an uninterpreted base domain within a [`Signature`].
///
/// The classical relational model has a single abstract domain; the paper
/// explicitly generalizes "from one (almost) abstract domain to many
/// domains" (Section 5), so domains are first-class and values carry the
/// domain they belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub u32);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// An uninterpreted element of an abstract domain.
///
/// Atoms have identity (so equality is decidable *by the implementation*)
/// but carry no interpreted structure: no ordering, arithmetic or
/// user-visible predicates apply to them. Whether a *query* is allowed to
/// observe atom equality is exactly what distinguishes the genericity
/// classes of Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// The domain this atom belongs to.
    pub domain: DomainId,
    /// Identity of the atom within its domain.
    pub id: u32,
}

impl Atom {
    /// Create an atom `id` of `domain`.
    pub const fn new(domain: DomainId, id: u32) -> Self {
        Atom { domain, id }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Small ids print as letters for readability in examples that
        // mirror the paper (a, b, c, ...); larger ids as `D0#17`.
        if self.domain.0 == 0 && self.id < 26 {
            write!(f, "{}", (b'a' + self.id as u8) as char)
        } else {
            write!(f, "{}#{}", self.domain, self.id)
        }
    }
}

/// A base type: one of the interpreted types `bool`, `int`, `str`, or an
/// uninterpreted abstract domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BaseType {
    /// The boolean type, required by the paper to be part of every Σ.
    Bool,
    /// Interpreted integers (with `=`, `<`, `even`, constants, ...).
    Int,
    /// Interpreted strings.
    Str,
    /// An uninterpreted domain of atoms.
    Domain(DomainId),
}

impl BaseType {
    /// True if this base type is interpreted (has functions/predicates
    /// beyond bare identity of representation).
    pub fn is_interpreted(&self) -> bool {
        !matches!(self, BaseType::Domain(_))
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Bool => write!(f, "bool"),
            BaseType::Int => write!(f, "int"),
            BaseType::Str => write!(f, "str"),
            BaseType::Domain(d) => write!(f, "{d}"),
        }
    }
}

/// An interpreted function symbol of a signature: a named total function
/// from a tuple of base-typed arguments to a base-typed result.
///
/// Section 2.5 defines when a mapping *preserves* a function `f`: `f` must
/// be invariant under the extended mapping. `genpar-mapping` consumes this
/// struct to implement that check.
pub struct InterpFn {
    /// The function's name (e.g. `succ`).
    pub name: String,
    /// Argument base types.
    pub args: Vec<BaseType>,
    /// Result base type.
    pub result: BaseType,
    /// The interpretation. [`InterpFn::apply`] calls it only on values of
    /// the base types in `args`.
    pub eval: FnImpl,
}

impl InterpFn {
    /// Apply the function to a value. A tuple supplies its components as
    /// the arguments, so a unary function applies to the sole component
    /// of a 1-tuple (§2.1); any other value is the one argument. Values
    /// outside the declared `args` are an error naming the function and
    /// the value, never a default result.
    pub fn apply(&self, v: &Value) -> Result<Value, DomainError> {
        let args = match v {
            Value::Tuple(t) => t.as_slice(),
            other => std::slice::from_ref(other),
        };
        within(&self.args, args)
            .then(|| (self.eval)(args))
            .flatten()
            .ok_or_else(|| DomainError::new(&self.name, &self.args, v.to_string()))
    }
}

impl fmt::Debug for InterpFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InterpFn")
            .field("name", &self.name)
            .field("args", &self.args)
            .field("result", &self.result)
            .finish_non_exhaustive()
    }
}

/// An interpreted predicate symbol of a signature.
///
/// The paper gives predicates two readings (Section 2.5): as possibly
/// infinite sets of tuples, or as boolean-valued functions. It adopts the
/// functional view (with mappings required to be the identity on `bool`),
/// and so do we.
pub struct InterpPred {
    /// The predicate's name (e.g. `even`, `<`).
    pub name: String,
    /// Argument base types.
    pub args: Vec<BaseType>,
    /// The interpretation. [`InterpPred::apply`] calls it only on values
    /// of the base types in `args`.
    pub eval: PredImpl,
}

impl InterpPred {
    /// Decide the predicate on its arguments. Arguments outside the
    /// declared `args` are an error naming the predicate and the
    /// arguments, never `false`.
    pub fn apply(&self, args: &[Value]) -> Result<bool, DomainError> {
        within(&self.args, args)
            .then(|| (self.eval)(args))
            .flatten()
            .ok_or_else(|| {
                let found = match args {
                    [one] => one.to_string(),
                    many => Value::Tuple(many.to_vec()).to_string(),
                };
                DomainError::new(&self.name, &self.args, found)
            })
    }
}

impl fmt::Debug for InterpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InterpPred")
            .field("name", &self.name)
            .field("args", &self.args)
            .finish_non_exhaustive()
    }
}

/// Do `args` inhabit the declared base types, one for one?
fn within(declared: &[BaseType], args: &[Value]) -> bool {
    declared.len() == args.len()
        && declared
            .iter()
            .zip(args)
            .all(|(ty, v)| v.base_type() == Some(*ty))
}

/// An interpreted symbol applied outside its domain. Section 2.5 defines
/// functions and predicates on the base types they declare; anything else
/// is an error, which a parametric program must preserve like any other
/// effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainError {
    /// The function or predicate.
    pub symbol: String,
    /// Rendering of the value it was applied to.
    pub found: String,
    /// Rendering of the declared argument types.
    pub expects: String,
}

impl DomainError {
    fn new(symbol: &str, declared: &[BaseType], found: String) -> DomainError {
        let expects = match declared {
            [one] => one.to_string(),
            many => {
                let tys: Vec<String> = many.iter().map(BaseType::to_string).collect();
                format!("({})", tys.join(", "))
            }
        };
        DomainError {
            symbol: symbol.to_string(),
            found,
            expects,
        }
    }
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} is not defined on {}: it takes {}",
            self.symbol, self.found, self.expects
        )
    }
}

impl std::error::Error for DomainError {}

/// A signature Σ: the base types available to a data model instance,
/// together with their interpreted functions and predicates.
///
/// `bool`, `int` and `str` are always present (the paper requires at least
/// `bool`); uninterpreted domains are registered by name.
#[derive(Debug, Default)]
pub struct Signature {
    domains: Vec<String>,
    functions: Vec<InterpFn>,
    predicates: Vec<InterpPred>,
}

impl Signature {
    /// An empty signature: `bool`/`int`/`str` only, no abstract domains,
    /// no interpreted symbols.
    pub fn new() -> Self {
        Signature::default()
    }

    /// A signature with `n` anonymous abstract domains `D0..Dn-1` and no
    /// interpreted symbols — the classical setting of [2, 7] generalized
    /// to many domains.
    pub fn with_domains(n: usize) -> Self {
        let mut s = Signature::new();
        for i in 0..n {
            s.add_domain(format!("D{i}"));
        }
        s
    }

    /// Register a fresh uninterpreted domain and return its id.
    pub fn add_domain(&mut self, name: impl Into<String>) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(name.into());
        id
    }

    /// Number of registered abstract domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Name of a registered domain.
    pub fn domain_name(&self, id: DomainId) -> Option<&str> {
        self.domains.get(id.0 as usize).map(String::as_str)
    }

    /// Register an interpreted function symbol.
    pub fn add_function(&mut self, f: InterpFn) {
        self.functions.push(f);
    }

    /// Register an interpreted predicate symbol.
    pub fn add_predicate(&mut self, p: InterpPred) {
        self.predicates.push(p);
    }

    /// Look up an interpreted function by name.
    pub fn function(&self, name: &str) -> Option<&InterpFn> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Look up an interpreted predicate by name.
    pub fn predicate(&self, name: &str) -> Option<&InterpPred> {
        self.predicates.iter().find(|p| p.name == name)
    }

    /// All interpreted functions.
    pub fn functions(&self) -> &[InterpFn] {
        &self.functions
    }

    /// All interpreted predicates.
    pub fn predicates(&self) -> &[InterpPred] {
        &self.predicates
    }

    /// The standard arithmetic signature used throughout the paper's
    /// examples: `int` with the predicates `even`, `<` and the unary
    /// predicate `=7` ("=₇" of Section 2.5), plus the successor function.
    pub fn standard_int() -> Self {
        let mut s = Signature::new();
        s.add_predicate(InterpPred {
            name: "even".into(),
            args: vec![BaseType::Int],
            eval: Box::new(|vs: &[Value]| match vs {
                [Value::Int(n)] => Some(n % 2 == 0),
                _ => None,
            }),
        });
        s.add_predicate(InterpPred {
            name: "lt".into(),
            args: vec![BaseType::Int, BaseType::Int],
            eval: Box::new(|vs: &[Value]| match vs {
                [Value::Int(a), Value::Int(b)] => Some(a < b),
                _ => None,
            }),
        });
        s.add_predicate(InterpPred {
            name: "eq7".into(),
            args: vec![BaseType::Int],
            eval: Box::new(|vs: &[Value]| match vs {
                [Value::Int(n)] => Some(*n == 7),
                _ => None,
            }),
        });
        s.add_function(InterpFn {
            name: "succ".into(),
            args: vec![BaseType::Int],
            result: BaseType::Int,
            eval: Box::new(|vs: &[Value]| match vs {
                [Value::Int(n)] => Some(Value::Int(n + 1)),
                _ => None,
            }),
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_have_identity_and_order() {
        let d = DomainId(0);
        let a = Atom::new(d, 0);
        let b = Atom::new(d, 1);
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(a, Atom::new(d, 0));
    }

    #[test]
    fn atoms_in_different_domains_differ() {
        let a = Atom::new(DomainId(0), 3);
        let b = Atom::new(DomainId(1), 3);
        assert_ne!(a, b);
    }

    #[test]
    fn atom_display_letters() {
        assert_eq!(Atom::new(DomainId(0), 0).to_string(), "a");
        assert_eq!(Atom::new(DomainId(0), 2).to_string(), "c");
        assert_eq!(Atom::new(DomainId(1), 2).to_string(), "D1#2");
    }

    #[test]
    fn signature_registers_domains() {
        let mut s = Signature::new();
        let d0 = s.add_domain("people");
        let d1 = s.add_domain("cities");
        assert_eq!(d0, DomainId(0));
        assert_eq!(d1, DomainId(1));
        assert_eq!(s.domain_name(d0), Some("people"));
        assert_eq!(s.domain_name(d1), Some("cities"));
        assert_eq!(s.domain_name(DomainId(2)), None);
        assert_eq!(s.domain_count(), 2);
    }

    #[test]
    fn with_domains_names_sequentially() {
        let s = Signature::with_domains(3);
        assert_eq!(s.domain_count(), 3);
        assert_eq!(s.domain_name(DomainId(2)), Some("D2"));
    }

    #[test]
    fn standard_int_signature_symbols() {
        let s = Signature::standard_int();
        let even = s.predicate("even").unwrap();
        assert_eq!(even.apply(&[Value::Int(4)]), Ok(true));
        assert_eq!(even.apply(&[Value::Int(7)]), Ok(false));
        let eq7 = s.predicate("eq7").unwrap();
        assert_eq!(eq7.apply(&[Value::Int(7)]), Ok(true));
        assert_eq!(eq7.apply(&[Value::Int(8)]), Ok(false));
        let lt = s.predicate("lt").unwrap();
        assert_eq!(lt.apply(&[Value::Int(1), Value::Int(2)]), Ok(true));
        assert_eq!(lt.apply(&[Value::Int(2), Value::Int(2)]), Ok(false));
        let succ = s.function("succ").unwrap();
        assert_eq!(succ.apply(&Value::Int(41)), Ok(Value::Int(42)));
        assert!(s.predicate("odd").is_none());
        assert!(s.function("pred").is_none());
    }

    #[test]
    fn a_unary_function_applies_to_the_sole_component_of_a_1_tuple() {
        let s = Signature::standard_int();
        let succ = s.function("succ").unwrap();
        let one = Value::tuple([Value::Int(7)]);
        assert_eq!(succ.apply(&one), Ok(Value::Int(8)));
    }

    #[test]
    fn arguments_outside_the_declared_domain_are_errors() {
        let s = Signature::standard_int();
        let (a, b) = (Value::atom(0, 0), Value::atom(0, 1));
        let err = s
            .function("succ")
            .unwrap()
            .apply(&Value::tuple([a.clone(), b]))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "succ is not defined on (a, b): it takes int"
        );
        let pair = Value::tuple([Value::Int(1), Value::Int(2)]);
        assert!(s.function("succ").unwrap().apply(&pair).is_err());
        let err = s.predicate("even").unwrap().apply(&[a]).unwrap_err();
        assert_eq!(err.to_string(), "even is not defined on a: it takes int");
        let err = s
            .predicate("lt")
            .unwrap()
            .apply(&[Value::Int(1)])
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "lt is not defined on 1: it takes (int, int)"
        );
    }

    #[test]
    fn interpreted_flags() {
        assert!(BaseType::Int.is_interpreted());
        assert!(BaseType::Bool.is_interpreted());
        assert!(BaseType::Str.is_interpreted());
        assert!(!BaseType::Domain(DomainId(0)).is_interpreted());
    }
}
