//! Bound expression trees.
//!
//! Final I/O lower bounds mix polynomial algebra with operations that leave
//! the polynomial world: `√S` (classical K-partition bounds), `⌊|V|/U⌋`
//! (Theorem 1), and `max` (combining the large-S and small-S branches of
//! Theorem 5). [`Expr`] is a small closed-form expression language with
//! exact construction and `f64`/rational evaluation.

use crate::poly::Poly;
use crate::ratfunc::RatFunc;
use crate::vars::Var;
use iolb_numeric::Rational;
use std::fmt;
use std::sync::Arc;

/// A closed-form bound expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Exact rational constant.
    Const(Rational),
    /// A program parameter.
    Var(Var),
    /// Sum of sub-expressions.
    Add(Vec<Expr>),
    /// Product of sub-expressions.
    Mul(Vec<Expr>),
    /// Quotient.
    Div(Arc<Expr>, Arc<Expr>),
    /// Power with a rational exponent (`Pow(S, 1/2) = √S`).
    Pow(Arc<Expr>, Rational),
    /// Floor to an integer.
    Floor(Arc<Expr>),
    /// Maximum of sub-expressions.
    Max(Vec<Expr>),
    /// Minimum of sub-expressions.
    Min(Vec<Expr>),
}

impl Expr {
    /// Integer constant.
    pub fn int(n: i128) -> Expr {
        Expr::Const(Rational::int(n))
    }

    /// The zero expression.
    pub fn zero() -> Expr {
        Expr::int(0)
    }

    /// Parameter expression.
    pub fn var(v: Var) -> Expr {
        Expr::Var(v)
    }

    /// Lifts a polynomial into an expression, terms and factors in the
    /// polynomial's render order (by variable name, independent of
    /// interning history).
    pub fn from_poly(p: &Poly) -> Expr {
        let mut sum = Vec::new();
        for (factors, coeff) in p.render_terms() {
            let mut prod = Vec::new();
            if !coeff.is_one() || factors.is_empty() {
                prod.push(Expr::Const(coeff));
            }
            for (v, e) in factors {
                if e == 1 {
                    prod.push(Expr::Var(v));
                } else {
                    prod.push(Expr::Pow(Arc::new(Expr::Var(v)), Rational::int(e as i128)));
                }
            }
            sum.push(if prod.len() == 1 {
                prod.pop().unwrap()
            } else {
                Expr::Mul(prod)
            });
        }
        match sum.len() {
            0 => Expr::zero(),
            1 => sum.pop().unwrap(),
            _ => Expr::Add(sum),
        }
    }

    /// Lifts a rational function into an expression.
    pub fn from_ratfunc(f: &RatFunc) -> Expr {
        if let Some(p) = f.as_poly() {
            Expr::from_poly(p)
        } else {
            Expr::Div(
                Arc::new(Expr::from_poly(f.num())),
                Arc::new(Expr::from_poly(f.den())),
            )
        }
    }

    /// `self + other` with light constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Const(a), Expr::Const(b)) => Expr::Const(a + b),
            (Expr::Const(z), e) | (e, Expr::Const(z)) if z.is_zero() => e,
            (Expr::Add(mut a), Expr::Add(b)) => {
                a.extend(b);
                Expr::Add(a)
            }
            (Expr::Add(mut a), e) => {
                a.push(e);
                Expr::Add(a)
            }
            (e, Expr::Add(mut b)) => {
                b.insert(0, e);
                Expr::Add(b)
            }
            (a, b) => Expr::Add(vec![a, b]),
        }
    }

    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        self.add(Expr::Const(-Rational::ONE).mul(other))
    }

    /// `self * other` with light constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Const(a), Expr::Const(b)) => Expr::Const(a * b),
            (Expr::Const(z), _) | (_, Expr::Const(z)) if z.is_zero() => Expr::zero(),
            (Expr::Const(o), e) | (e, Expr::Const(o)) if o.is_one() => e,
            (Expr::Mul(mut a), Expr::Mul(b)) => {
                a.extend(b);
                Expr::Mul(a)
            }
            (Expr::Mul(mut a), e) => {
                a.push(e);
                Expr::Mul(a)
            }
            (e, Expr::Mul(mut b)) => {
                b.insert(0, e);
                Expr::Mul(b)
            }
            (a, b) => Expr::Mul(vec![a, b]),
        }
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Div(Arc::new(self), Arc::new(other))
    }

    /// `self ^ exp` for a rational exponent (folds rational constants with
    /// integer exponents, `x^1`, and `1^q`).
    pub fn pow(self, exp: Rational) -> Expr {
        if exp.is_one() {
            return self;
        }
        if let Expr::Const(c) = &self {
            if c.is_one() {
                return Expr::int(1);
            }
            if exp.is_integer() {
                return Expr::Const(c.pow(exp.to_integer() as i32));
            }
        }
        Expr::Pow(Arc::new(self), exp)
    }

    /// `√self`.
    pub fn sqrt(self) -> Expr {
        self.pow(Rational::new(1, 2))
    }

    /// `⌊self⌋`.
    pub fn floor(self) -> Expr {
        Expr::Floor(Arc::new(self))
    }

    /// `max(self, other)`.
    pub fn max(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Max(mut a), Expr::Max(b)) => {
                a.extend(b);
                Expr::Max(a)
            }
            (Expr::Max(mut a), e) => {
                a.push(e);
                Expr::Max(a)
            }
            (a, b) => Expr::Max(vec![a, b]),
        }
    }

    /// Evaluates to `f64` with the given parameter environment.
    ///
    /// # Panics
    /// Panics on unbound variables.
    pub fn eval_f64(&self, env: &dyn Fn(Var) -> Option<f64>) -> f64 {
        match self {
            Expr::Const(c) => c.to_f64(),
            Expr::Var(v) => {
                env(*v).unwrap_or_else(|| panic!("unbound variable {v} in Expr::eval_f64"))
            }
            Expr::Add(es) => es.iter().map(|e| e.eval_f64(env)).sum(),
            Expr::Mul(es) => es.iter().map(|e| e.eval_f64(env)).product(),
            Expr::Div(a, b) => a.eval_f64(env) / b.eval_f64(env),
            Expr::Pow(a, e) => a.eval_f64(env).powf(e.to_f64()),
            Expr::Floor(a) => a.eval_f64(env).floor(),
            Expr::Max(es) => es
                .iter()
                .map(|e| e.eval_f64(env))
                .fold(f64::NEG_INFINITY, f64::max),
            Expr::Min(es) => es
                .iter()
                .map(|e| e.eval_f64(env))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Evaluates over an integer environment slice.
    pub fn eval_ints_f64(&self, env: &[(Var, i128)]) -> f64 {
        self.eval_f64(&|v| env.iter().find(|(w, _)| *w == v).map(|(_, x)| *x as f64))
    }

    /// Exact rational evaluation; `None` when the expression uses a
    /// non-integer power (e.g. `√S`) or divides by zero.
    pub fn eval_exact(&self, env: &[(Var, Rational)]) -> Option<Rational> {
        match self {
            Expr::Const(c) => Some(*c),
            Expr::Var(v) => env.iter().find(|(w, _)| w == v).map(|(_, x)| *x),
            Expr::Add(es) => {
                let mut acc = Rational::ZERO;
                for e in es {
                    acc += e.eval_exact(env)?;
                }
                Some(acc)
            }
            Expr::Mul(es) => {
                let mut acc = Rational::ONE;
                for e in es {
                    acc *= e.eval_exact(env)?;
                }
                Some(acc)
            }
            Expr::Div(a, b) => {
                let d = b.eval_exact(env)?;
                if d.is_zero() {
                    return None;
                }
                Some(a.eval_exact(env)? / d)
            }
            Expr::Pow(a, e) => {
                if !e.is_integer() {
                    return None;
                }
                let base = a.eval_exact(env)?;
                let ei = e.to_integer();
                if ei < 0 && base.is_zero() {
                    return None;
                }
                Some(base.pow(ei as i32))
            }
            Expr::Floor(a) => Some(Rational::int(a.eval_exact(env)?.floor())),
            Expr::Max(es) => {
                let mut best: Option<Rational> = None;
                for e in es {
                    let v = e.eval_exact(env)?;
                    best = Some(match best {
                        None => v,
                        Some(b) => b.max(v),
                    });
                }
                best
            }
            Expr::Min(es) => {
                let mut best: Option<Rational> = None;
                for e in es {
                    let v = e.eval_exact(env)?;
                    best = Some(match best {
                        None => v,
                        Some(b) => b.min(v),
                    });
                }
                best
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn braced(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match e {
                Expr::Const(_) | Expr::Var(_) | Expr::Floor(_) | Expr::Pow(_, _) => {
                    write!(f, "{e}")
                }
                _ => write!(f, "({e})"),
            }
        }
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            Expr::Mul(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    braced(e, f)?;
                }
                Ok(())
            }
            Expr::Div(a, b) => {
                braced(a, f)?;
                write!(f, " / ")?;
                braced(b, f)
            }
            Expr::Pow(a, e) => {
                if *e == Rational::new(1, 2) {
                    write!(f, "√")?;
                    return braced(a, f);
                }
                braced(a, f)?;
                write!(f, "^{e}")
            }
            Expr::Floor(a) => write!(f, "⌊{a}⌋"),
            Expr::Max(es) => {
                write!(f, "max(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Min(es) => {
                write!(f, "min(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::var;
    use iolb_numeric::rational::rat;

    #[test]
    fn mgs_bound_shape_evaluates() {
        // M²N(N-1) / (8(S+M)) at M=100, N=10, S=50
        let (m, n, s) = (var("em"), var("en"), var("es"));
        let num = Expr::var(m)
            .pow(Rational::TWO)
            .mul(Expr::var(n))
            .mul(Expr::var(n).sub(Expr::int(1)));
        let den = Expr::int(8).mul(Expr::var(s).add(Expr::var(m)));
        let bound = num.div(den);
        let v = bound.eval_ints_f64(&[(m, 100), (n, 10), (s, 50)]);
        assert!((v - (100.0f64 * 100.0 * 10.0 * 9.0) / (8.0 * 150.0)).abs() < 1e-9);
        let exact = bound
            .eval_exact(&[
                (m, Rational::int(100)),
                (n, Rational::int(10)),
                (s, Rational::int(50)),
            ])
            .unwrap();
        assert_eq!(exact, Rational::new(100 * 100 * 10 * 9, 8 * 150));
    }

    #[test]
    fn sqrt_bound_evaluates_f64_only() {
        let s = var("es2");
        let e = Expr::int(100).div(Expr::var(s).sqrt());
        assert!((e.eval_ints_f64(&[(s, 25)]) - 20.0).abs() < 1e-12);
        assert_eq!(e.eval_exact(&[(s, Rational::int(25))]), None);
    }

    #[test]
    fn floor_and_max() {
        let s = var("es3");
        let e = Expr::var(s).div(Expr::int(3)).floor();
        assert_eq!(
            e.eval_exact(&[(s, Rational::int(10))]),
            Some(Rational::int(3))
        );
        let mx = Expr::var(s).max(Expr::int(7));
        assert_eq!(
            mx.eval_exact(&[(s, Rational::int(3))]),
            Some(Rational::int(7))
        );
        assert_eq!(
            mx.eval_exact(&[(s, Rational::int(9))]),
            Some(Rational::int(9))
        );
    }

    #[test]
    fn from_poly_roundtrip() {
        let (m, n) = (var("em4"), var("en4"));
        let p = Poly::var(m).pow(2) * Poly::var(n) - Poly::int(3) * Poly::var(n) + Poly::int(7);
        let e = Expr::from_poly(&p);
        for mm in 1..5i128 {
            for nn in 1..5i128 {
                let pe = p.eval_ints(&[(m, mm), (n, nn)]);
                let ee = e
                    .eval_exact(&[(m, Rational::int(mm)), (n, Rational::int(nn))])
                    .unwrap();
                assert_eq!(pe, ee);
            }
        }
    }

    #[test]
    fn from_ratfunc_roundtrip() {
        let k = var("ek5");
        let f = RatFunc::new(
            Poly::var(k).pow(2) + Poly::int(2) * Poly::var(k),
            Poly::var(k) + Poly::one(),
        );
        let e = Expr::from_ratfunc(&f);
        for kk in 1..10i128 {
            assert_eq!(
                e.eval_exact(&[(k, Rational::int(kk))]).unwrap(),
                f.eval_ints(&[(k, kk)]).unwrap()
            );
        }
    }

    #[test]
    fn folding_rules() {
        assert_eq!(Expr::int(2).add(Expr::int(3)), Expr::int(5));
        assert_eq!(Expr::int(2).mul(Expr::int(3)), Expr::int(6));
        let v = Expr::var(var("ef6"));
        assert_eq!(Expr::int(0).add(v.clone()), v);
        assert_eq!(Expr::int(1).mul(v.clone()), v);
        assert_eq!(Expr::int(0).mul(v.clone()), Expr::zero());
        assert_eq!(
            Expr::Const(rat(1, 2)).add(Expr::Const(rat(1, 2))),
            Expr::int(1)
        );
    }

    #[test]
    fn display_readable() {
        let (m, s) = (var("em7"), var("es7"));
        let e = Expr::var(m)
            .pow(Rational::TWO)
            .div(Expr::var(s).sqrt())
            .floor();
        assert_eq!(format!("{e}"), "⌊em7^2 / √es7⌋");
    }
}
