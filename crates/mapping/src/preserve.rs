//! Preservation of constants, functions and predicates by mappings
//! (Sections 2.4.1 and 2.5).

use crate::extend::{relates, ExtensionMode};
use crate::family::MappingFamily;
use genpar_value::{CvType, InterpFn, InterpPred, Value};

/// Does the family preserve the first-order constant `c`?
///
/// Section 2.4.1: "H preserves a (first-order) constant c if H(c, c)
/// holds" — equivalently `H^rel({c}, {c})`. Preservation still allows `H`
/// to associate `c` with other values.
pub fn preserves_constant(family: &MappingFamily, c: &Value) -> bool {
    family.holds_base(c, c)
}

/// Does the family *strictly* preserve `c`?
///
/// "It strictly preserves c if additionally whenever H(x, y) holds,
/// x = c iff y = c" — equivalently `H^strong({c}, {c})`.
pub fn strictly_preserves_constant(family: &MappingFamily, c: &Value) -> bool {
    if !preserves_constant(family, c) {
        return false;
    }
    let b = match c.base_type() {
        Some(b) => b,
        None => return false,
    };
    match family.get(b) {
        crate::family::MappingRef::Finite(m) => m.pairs().all(|(x, y)| (x == c) == (y == c)),
        crate::family::MappingRef::Identity => true,
    }
}

/// Does the extended family preserve the interpreted function `f` at the
/// given argument tuples?
///
/// Section 2.5: "a mapping `H^x` preserves a function f if f is invariant
/// under `H^x`: if `H^x(x, y)` then `H^x(f(x), f(y))`". The quantification
/// over all related argument tuples is over an infinite space in general;
/// this checker quantifies over the explicitly provided `carrier` of
/// argument tuples (a finite window), which is exact for finite mappings
/// because arguments outside `dom(H)` are unrelated to everything.
pub fn preserves_function<'a>(
    family: &MappingFamily,
    f: &InterpFn,
    mode: ExtensionMode,
    carrier: impl IntoIterator<Item = (&'a [Value], &'a [Value])>,
) -> bool {
    let arg_ty = CvType::Tuple(f.args.iter().map(|b| CvType::Base(*b)).collect());
    let res_ty = CvType::Base(f.result);
    for (xs, ys) in carrier {
        let xt = Value::Tuple(xs.to_vec());
        let yt = Value::Tuple(ys.to_vec());
        if relates(family, &arg_ty, mode, &xt, &yt) {
            let (Ok(fx), Ok(fy)) = (f.apply(&xt), f.apply(&yt)) else {
                return false;
            };
            if !relates(family, &res_ty, mode, &fx, &fy) {
                return false;
            }
        }
    }
    true
}

/// Enumerate all related argument pairs of a function/predicate over the
/// family's finite members (plus identity on interpreted types restricted
/// to `int_window`), and return them as owned tuples.
///
/// This realizes the "finite window" quantification used by
/// [`preserves_function`] / [`preserves_predicate`].
pub fn related_arg_pairs(
    family: &MappingFamily,
    args: &[genpar_value::BaseType],
    int_window: (i64, i64),
) -> Vec<(Vec<Value>, Vec<Value>)> {
    // candidate (x, y) pairs per argument position
    let mut per_pos: Vec<Vec<(Value, Value)>> = Vec::with_capacity(args.len());
    for b in args {
        let mut pairs = Vec::new();
        match family.get(*b) {
            crate::family::MappingRef::Finite(m) => {
                pairs.extend(m.pairs().cloned());
            }
            crate::family::MappingRef::Identity => match b {
                genpar_value::BaseType::Int => {
                    for n in int_window.0..=int_window.1 {
                        pairs.push((Value::Int(n), Value::Int(n)));
                    }
                }
                genpar_value::BaseType::Bool => {
                    pairs.push((Value::Bool(false), Value::Bool(false)));
                    pairs.push((Value::Bool(true), Value::Bool(true)));
                }
                _ => {}
            },
        }
        per_pos.push(pairs);
    }
    let mut out: Vec<(Vec<Value>, Vec<Value>)> = vec![(Vec::new(), Vec::new())];
    for pos in &per_pos {
        let mut next = Vec::with_capacity(out.len() * pos.len());
        for (xs, ys) in &out {
            for (x, y) in pos {
                let mut xs2 = xs.clone();
                let mut ys2 = ys.clone();
                xs2.push(x.clone());
                ys2.push(y.clone());
                next.push((xs2, ys2));
            }
        }
        out = next;
    }
    out
}

/// Does the family preserve `p` under the paper's *first* reading of
/// Section 2.5 — "a predicate can be viewed as a complex value — a
/// (possibly infinite) set of pairs"?
///
/// Restricted to the finite window, `p`'s extension is the relation
/// `P = {x̄ : p(x̄)}`, a set of tuples, and preservation means
/// `{H^×}ʳᵉˡ(P|dom, P|cod)` — the window restrictions of `P` to the
/// mapping's domain/codomain sides are related as complex values.
///
/// The two readings genuinely differ: the relational view only demands
/// that *truths map to truths* (and conversely that every truth on the
/// right is reachable), while the functional view also constrains
/// *falsehoods* (related arguments must agree on `false` too). See the
/// `views_differ_on_truth_only_mappings` test.
pub fn preserves_predicate_as_relation(
    family: &MappingFamily,
    p: &InterpPred,
    int_window: (i64, i64),
) -> bool {
    // materialize the two window restrictions of P
    let arg_ty = CvType::Tuple(p.args.iter().map(|b| CvType::Base(*b)).collect());
    let rel_ty = CvType::set(arg_ty.clone());
    let mut left: std::collections::BTreeSet<Value> = std::collections::BTreeSet::new();
    let mut right: std::collections::BTreeSet<Value> = std::collections::BTreeSet::new();
    for (xs, ys) in related_arg_pairs(family, &p.args, int_window) {
        if p.apply(&xs) == Ok(true) {
            left.insert(Value::Tuple(xs));
        }
        if p.apply(&ys) == Ok(true) {
            right.insert(Value::Tuple(ys));
        }
    }
    relates(
        family,
        &rel_ty,
        ExtensionMode::Rel,
        &Value::Set(left),
        &Value::Set(right),
    )
}

/// Does the family preserve the interpreted predicate `p`?
///
/// Under the paper's functional view of predicates (Section 2.5), `p` is a
/// boolean-valued function and the mapping must be the identity on `bool`
/// (which [`MappingFamily`] enforces by construction): whenever the
/// arguments are related, the truth values must be equal.
pub fn preserves_predicate(
    family: &MappingFamily,
    p: &InterpPred,
    mode: ExtensionMode,
    int_window: (i64, i64),
) -> bool {
    for (xs, ys) in related_arg_pairs(family, &p.args, int_window) {
        let arg_ty = CvType::Tuple(p.args.iter().map(|b| CvType::Base(*b)).collect());
        let xt = Value::Tuple(xs.clone());
        let yt = Value::Tuple(ys.clone());
        if relates(family, &arg_ty, mode, &xt, &yt) && p.apply(&xs) != p.apply(&ys) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpar_value::{BaseType, Signature};

    #[test]
    fn constant_preservation_regular_vs_strict() {
        let c = Value::atom(0, 0);
        // preserves a (a↦a) and also a↦b: regular but not strict
        let loose = MappingFamily::atoms(&[(0, 0), (0, 1)]);
        assert!(preserves_constant(&loose, &c));
        assert!(!strictly_preserves_constant(&loose, &c));
        // a↦a only, b↦c elsewhere: strict
        let strict = MappingFamily::atoms(&[(0, 0), (1, 2)]);
        assert!(strictly_preserves_constant(&strict, &c));
        // a not mapped to itself: not even regular
        let broken = MappingFamily::atoms(&[(0, 1)]);
        assert!(!preserves_constant(&broken, &c));
    }

    #[test]
    fn strict_preservation_rejects_foreign_sources() {
        // b ↦ a pollutes strictness of a even when a ↦ a.
        let c = Value::atom(0, 0);
        let f = MappingFamily::atoms(&[(0, 0), (1, 0)]);
        assert!(preserves_constant(&f, &c));
        assert!(!strictly_preserves_constant(&f, &c));
    }

    #[test]
    fn identity_strictly_preserves_everything() {
        let f = MappingFamily::new();
        assert!(strictly_preserves_constant(&f, &Value::Int(7)));
        assert!(strictly_preserves_constant(&f, &Value::Bool(true)));
    }

    #[test]
    fn even_not_preserved_by_shifting_mapping() {
        // Lemma 2.12's engine: the mapping n ↦ n+1 on a finite window
        // fails to preserve `even`.
        let sig = Signature::standard_int();
        let even = sig.predicate("even").unwrap();
        let shift = crate::finite::Mapping::from_fn(
            CvType::int(),
            CvType::int(),
            (0..6).map(Value::Int),
            |v| Value::Int(v.as_int().unwrap() + 1),
        );
        let mut fam = MappingFamily::new();
        fam.set(shift);
        assert!(!preserves_predicate(&fam, even, ExtensionMode::Rel, (0, 6)));
    }

    #[test]
    fn even_preserved_by_parity_respecting_mapping() {
        let sig = Signature::standard_int();
        let even = sig.predicate("even").unwrap();
        let double = crate::finite::Mapping::from_fn(
            CvType::int(),
            CvType::int(),
            (0..6).map(Value::Int),
            |v| Value::Int(v.as_int().unwrap() + 2),
        );
        let mut fam = MappingFamily::new();
        fam.set(double);
        assert!(preserves_predicate(&fam, even, ExtensionMode::Rel, (0, 12)));
    }

    #[test]
    fn prop_2_13_preserves_p_iff_not_p() {
        // Under the functional interpretation, H preserves p iff ¬p.
        let sig = Signature::standard_int();
        let even = sig.predicate("even").unwrap();
        let odd = InterpPred {
            name: "odd".into(),
            args: vec![BaseType::Int],
            eval: Box::new(|vs| match vs {
                [Value::Int(n)] => Some(n % 2 != 0),
                _ => None,
            }),
        };
        for pairs in [
            vec![(0i64, 1i64)],
            vec![(0, 2), (1, 3)],
            vec![(0, 0), (1, 2)],
            vec![(2, 4), (3, 5), (4, 4)],
        ] {
            let m = crate::finite::Mapping::from_pairs(
                CvType::int(),
                CvType::int(),
                pairs.iter().map(|&(x, y)| (Value::Int(x), Value::Int(y))),
            );
            let mut fam = MappingFamily::new();
            fam.set(m);
            assert_eq!(
                preserves_predicate(&fam, even, ExtensionMode::Rel, (0, 6)),
                preserves_predicate(&fam, &odd, ExtensionMode::Rel, (0, 6)),
            );
        }
    }

    #[test]
    fn function_preservation_succ() {
        let sig = Signature::standard_int();
        let succ = sig.function("succ").unwrap();
        // The identity family preserves every function (succ included).
        let fam = MappingFamily::new();
        let carrier = related_arg_pairs(&fam, &[BaseType::Int], (0, 12));
        let borrowed: Vec<(&[Value], &[Value])> = carrier
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        assert!(preserves_function(
            &fam,
            succ,
            ExtensionMode::Rel,
            borrowed.iter().map(|&(a, b)| (a, b))
        ));

        // A finite +2 shift on 0..=5 fails at the window edge: H(5,7)
        // holds but succ's outputs (6,8) are unrelated — finite mappings
        // must be closed under the function to preserve it.
        let shift2 = crate::finite::Mapping::from_fn(
            CvType::int(),
            CvType::int(),
            (0..6).map(Value::Int),
            |v| Value::Int(v.as_int().unwrap() + 2),
        );
        let mut fam_s = MappingFamily::new();
        fam_s.set(shift2);
        let carrier_s = related_arg_pairs(&fam_s, &[BaseType::Int], (0, 12));
        let borrowed_s: Vec<(&[Value], &[Value])> = carrier_s
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        assert!(!preserves_function(
            &fam_s,
            succ,
            ExtensionMode::Rel,
            borrowed_s.iter().map(|&(a, b)| (a, b))
        ));

        // n ↦ 2n does not commute with succ (2(n+1) ≠ 2n+1)
        let dbl = crate::finite::Mapping::from_fn(
            CvType::int(),
            CvType::int(),
            (0..6).map(Value::Int),
            |v| Value::Int(v.as_int().unwrap() * 2),
        );
        let mut fam2 = MappingFamily::new();
        fam2.set(dbl);
        let carrier2 = related_arg_pairs(&fam2, &[BaseType::Int], (0, 12));
        let borrowed2: Vec<(&[Value], &[Value])> = carrier2
            .iter()
            .map(|(a, b)| (a.as_slice(), b.as_slice()))
            .collect();
        assert!(!preserves_function(
            &fam2,
            succ,
            ExtensionMode::Rel,
            borrowed2.iter().map(|&(a, b)| (a, b))
        ));
    }

    #[test]
    fn relational_view_tracks_truth_sets() {
        let sig = Signature::standard_int();
        let even = sig.predicate("even").unwrap();
        // parity-respecting mapping: truths {0,2,4} ↦ truths — both views agree
        let respect = crate::finite::Mapping::from_fn(
            CvType::int(),
            CvType::int(),
            (0..5).map(Value::Int),
            |v| Value::Int(v.as_int().unwrap() + 2),
        );
        let mut fam = MappingFamily::new();
        fam.set(respect);
        assert!(preserves_predicate_as_relation(&fam, even, (0, 7)));
        assert!(preserves_predicate(&fam, even, ExtensionMode::Rel, (0, 7)));
    }

    #[test]
    fn views_differ_on_truth_only_mappings() {
        // §2.5's "in the full paper we compare the various notions":
        // a mapping sending an even to an odd AND an even, 0 ↦ {1, 2}.
        // Functional view: related pair (0,1) has even(0)=true ≠
        // even(1)=false → NOT preserved.
        // Relational view: truths on the left {0} relate to truths on the
        // right {2} (0↦2 covers both directions) → preserved.
        let sig = Signature::standard_int();
        let even = sig.predicate("even").unwrap();
        let m = crate::finite::Mapping::from_pairs(
            CvType::int(),
            CvType::int(),
            [
                (Value::Int(0), Value::Int(1)),
                (Value::Int(0), Value::Int(2)),
            ],
        );
        let mut fam = MappingFamily::new();
        fam.set(m);
        assert!(!preserves_predicate(&fam, even, ExtensionMode::Rel, (0, 3)));
        assert!(preserves_predicate_as_relation(&fam, even, (0, 3)));
    }

    #[test]
    fn lt_preserved_by_monotone_only() {
        let sig = Signature::standard_int();
        let lt = sig.predicate("lt").unwrap();
        let mono = crate::finite::Mapping::from_fn(
            CvType::int(),
            CvType::int(),
            (0..5).map(Value::Int),
            |v| Value::Int(v.as_int().unwrap() * 3),
        );
        let mut fam = MappingFamily::new();
        fam.set(mono);
        assert!(preserves_predicate(&fam, lt, ExtensionMode::Rel, (0, 15)));

        let swap = crate::finite::Mapping::from_pairs(
            CvType::int(),
            CvType::int(),
            [
                (Value::Int(0), Value::Int(1)),
                (Value::Int(1), Value::Int(0)),
            ],
        );
        let mut fam2 = MappingFamily::new();
        fam2.set(swap);
        assert!(!preserves_predicate(&fam2, lt, ExtensionMode::Rel, (0, 2)));
    }
}
