//! Sparse multivariate polynomials over exact rationals.
//!
//! Instance counts (`|V|`), hourglass widths (`W(k) = M-1-k`) and the
//! numerators/denominators of every derived bound are polynomials in the
//! program parameters. Representation: a sorted map from monomials to
//! non-zero rational coefficients.

use crate::vars::Var;
use iolb_numeric::Rational;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A monomial: sorted list of `(variable, exponent)` pairs, exponents > 0.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial(Vec<(Var, u32)>);

impl Monomial {
    /// The empty monomial (constant term).
    pub fn one() -> Monomial {
        Monomial(Vec::new())
    }

    /// A single variable to the given power.
    pub fn var_pow(v: Var, e: u32) -> Monomial {
        if e == 0 {
            Monomial::one()
        } else {
            Monomial(vec![(v, e)])
        }
    }

    /// Product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut out: Vec<(Var, u32)> = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].0.cmp(&other.0[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((self.0[i].0, self.0[i].1 + other.0[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        Monomial(out)
    }

    /// Exponent of `v` in this monomial.
    pub fn exponent(&self, v: Var) -> u32 {
        self.0
            .iter()
            .find(|(w, _)| *w == v)
            .map(|(_, e)| *e)
            .unwrap_or(0)
    }

    /// Total degree.
    pub fn total_degree(&self) -> u32 {
        self.0.iter().map(|(_, e)| e).sum()
    }

    /// The monomial with variable `v` removed.
    pub fn without(&self, v: Var) -> Monomial {
        Monomial(self.0.iter().copied().filter(|(w, _)| *w != v).collect())
    }

    /// Variables of this monomial.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.0.iter().map(|(v, _)| *v)
    }

    /// True when this monomial divides `other`.
    pub fn divides(&self, other: &Monomial) -> bool {
        self.0.iter().all(|(v, e)| other.exponent(*v) >= *e)
    }

    /// Quotient monomial `other / self` (requires divisibility).
    pub fn div_into(&self, other: &Monomial) -> Monomial {
        debug_assert!(self.divides(other));
        let mut out = Vec::new();
        for (v, e) in &other.0 {
            let d = e - self.exponent(*v);
            if d > 0 {
                out.push((*v, d));
            }
        }
        Monomial(out)
    }

    /// Graded-lexicographic comparison (a true monomial order: compatible
    /// with multiplication), used to pick leading terms in long division.
    pub fn cmp_grlex(&self, other: &Monomial) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match self.total_degree().cmp(&other.total_degree()) {
            Ordering::Equal => {}
            o => return o,
        }
        // Lexicographic on exponent vectors: larger exponent at the
        // earliest variable wins. Both lists are sorted by Var.
        let (mut i, mut j) = (0, 0);
        loop {
            match (self.0.get(i), other.0.get(j)) {
                (None, None) => return Ordering::Equal,
                (Some(_), None) => return Ordering::Greater,
                (None, Some(_)) => return Ordering::Less,
                (Some(&(va, ea)), Some(&(vb, eb))) => {
                    if va < vb {
                        return Ordering::Greater;
                    }
                    if va > vb {
                        return Ordering::Less;
                    }
                    if ea != eb {
                        return ea.cmp(&eb);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Component-wise gcd (min of exponents).
    pub fn gcd(&self, other: &Monomial) -> Monomial {
        let mut out = Vec::new();
        for (v, e) in &self.0 {
            let m = (*e).min(other.exponent(*v));
            if m > 0 {
                out.push((*v, m));
            }
        }
        Monomial(out)
    }
}

/// A sparse multivariate polynomial with rational coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    terms: BTreeMap<Monomial, Rational>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// The constant polynomial `1`.
    pub fn one() -> Poly {
        Poly::constant(Rational::ONE)
    }

    /// A constant polynomial.
    pub fn constant(c: Rational) -> Poly {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(Monomial::one(), c);
        }
        Poly { terms }
    }

    /// An integer constant polynomial.
    pub fn int(n: i128) -> Poly {
        Poly::constant(Rational::int(n))
    }

    /// The polynomial `v`.
    pub fn var(v: Var) -> Poly {
        Poly::term(Rational::ONE, Monomial::var_pow(v, 1))
    }

    /// Parses nothing — builds `c * m` directly.
    pub fn term(c: Rational, m: Monomial) -> Poly {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(m, c);
        }
        Poly { terms }
    }

    /// True iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// True iff this polynomial is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
            || (self.terms.len() == 1 && self.terms.keys().next().unwrap().0.is_empty())
    }

    /// The constant value, if [`Poly::is_constant`].
    pub fn as_constant(&self) -> Option<Rational> {
        if self.terms.is_empty() {
            Some(Rational::ZERO)
        } else if self.is_constant() {
            Some(*self.terms.values().next().unwrap())
        } else {
            None
        }
    }

    /// Iterator over `(monomial, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &Rational)> {
        self.terms.iter()
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// All variables appearing in the polynomial.
    pub fn vars(&self) -> Vec<Var> {
        let mut vs: Vec<Var> = self
            .terms
            .keys()
            .flat_map(|m| m.vars().collect::<Vec<_>>())
            .collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// Degree in `v` (zero polynomial has degree 0 by convention here).
    pub fn degree_in(&self, v: Var) -> u32 {
        self.terms.keys().map(|m| m.exponent(v)).max().unwrap_or(0)
    }

    /// Total degree.
    pub fn total_degree(&self) -> u32 {
        self.terms
            .keys()
            .map(|m| m.total_degree())
            .max()
            .unwrap_or(0)
    }

    /// Coefficient of `v^d`, as a polynomial in the remaining variables.
    pub fn coeff_of(&self, v: Var, d: u32) -> Poly {
        let mut out = Poly::zero();
        for (m, c) in &self.terms {
            if m.exponent(v) == d {
                out.add_term(m.without(v), *c);
            }
        }
        out
    }

    fn add_term(&mut self, m: Monomial, c: Rational) {
        if c.is_zero() {
            return;
        }
        let entry = self.terms.entry(m);
        match entry {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(c);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let s = *e.get() + c;
                if s.is_zero() {
                    e.remove();
                } else {
                    *e.get_mut() = s;
                }
            }
        }
    }

    /// Scales the polynomial by a rational constant.
    pub fn scale(&self, c: Rational) -> Poly {
        if c.is_zero() {
            return Poly::zero();
        }
        Poly {
            terms: self
                .terms
                .iter()
                .map(|(m, k)| (m.clone(), *k * c))
                .collect(),
        }
    }

    /// Exact exponentiation.
    pub fn pow(&self, e: u32) -> Poly {
        let mut acc = Poly::one();
        for _ in 0..e {
            acc = &acc * self;
        }
        acc
    }

    /// Substitutes `v := value` (a polynomial) everywhere.
    pub fn subst(&self, v: Var, value: &Poly) -> Poly {
        let mut out = Poly::zero();
        // Group by exponent of v for Horner-free but simple evaluation.
        let deg = self.degree_in(v);
        let mut pow_cache: Vec<Poly> = Vec::with_capacity(deg as usize + 1);
        pow_cache.push(Poly::one());
        for d in 1..=deg {
            let next = &pow_cache[(d - 1) as usize] * value;
            pow_cache.push(next);
        }
        for (m, c) in &self.terms {
            let e = m.exponent(v);
            let rest = Poly::term(*c, m.without(v));
            out = &out + &(&rest * &pow_cache[e as usize]);
        }
        out
    }

    /// Exact evaluation with every variable bound through `env`.
    ///
    /// # Panics
    /// Panics if `env` returns `None` for a variable that occurs.
    pub fn eval(&self, env: &dyn Fn(Var) -> Option<Rational>) -> Rational {
        let mut acc = Rational::ZERO;
        for (m, c) in &self.terms {
            let mut t = *c;
            for (v, e) in &m.0 {
                let val = env(*v).unwrap_or_else(|| panic!("unbound variable {} in Poly::eval", v));
                t *= val.pow(*e as i32);
            }
            acc += t;
        }
        acc
    }

    /// Evaluation against a `(Var, i128)` environment slice.
    pub fn eval_ints(&self, env: &[(Var, i128)]) -> Rational {
        self.eval(&|v| {
            env.iter()
                .find(|(w, _)| *w == v)
                .map(|(_, x)| Rational::int(*x))
        })
    }

    /// Lossy `f64` evaluation (plots / quick comparisons only).
    pub fn eval_f64(&self, env: &dyn Fn(Var) -> Option<f64>) -> f64 {
        let mut acc = 0.0;
        for (m, c) in &self.terms {
            let mut t = c.to_f64();
            for (v, e) in &m.0 {
                let val =
                    env(*v).unwrap_or_else(|| panic!("unbound variable {} in Poly::eval_f64", v));
                t *= val.powi(*e as i32);
            }
            acc += t;
        }
        acc
    }

    /// Divides by `divisor` if the division is exact; `None` otherwise.
    ///
    /// Uses multivariate long division with respect to the monomial order;
    /// exactness means remainder 0.
    pub fn div_exact(&self, divisor: &Poly) -> Option<Poly> {
        assert!(!divisor.is_zero(), "division by zero polynomial");
        let mut rem = self.clone();
        let mut quot = Poly::zero();
        fn leading(p: &Poly) -> (Monomial, Rational) {
            p.terms
                .iter()
                .max_by(|(a, _), (b, _)| a.cmp_grlex(b))
                .map(|(m, c)| (m.clone(), *c))
                .expect("leading term of nonzero polynomial")
        }
        let (dm, dc) = leading(divisor);
        while !rem.is_zero() {
            let (rm, rc) = leading(&rem);
            if !dm.divides(&rm) {
                return None;
            }
            let qm = dm.div_into(&rm);
            let qc = rc / dc;
            let qt = Poly::term(qc, qm);
            quot = &quot + &qt;
            rem = &rem - &(&qt * divisor);
        }
        Some(quot)
    }

    /// Rational content (gcd of coefficients, sign-normalized) and monomial
    /// content (gcd of monomials) — used to lightly normalize [`RatFunc`](crate::RatFunc)s.
    pub fn content(&self) -> (Rational, Monomial) {
        if self.is_zero() {
            return (Rational::ZERO, Monomial::one());
        }
        let mut mono = self.terms.keys().next().unwrap().clone();
        let mut num_gcd: i128 = 0;
        let mut den_lcm: i128 = 1;
        for (m, c) in &self.terms {
            mono = mono.gcd(m);
            num_gcd = iolb_numeric::gcd_i128(num_gcd, c.num());
            let g = iolb_numeric::gcd_i128(den_lcm, c.den());
            den_lcm = (den_lcm / g)
                .checked_mul(c.den())
                .expect("content overflow");
        }
        let mut content = Rational::new(num_gcd, den_lcm);
        // Sign convention: leading coefficient positive after removing content.
        let lead = *self.terms.iter().next_back().unwrap().1;
        if lead.is_negative() {
            content = -content;
        }
        (content, mono)
    }
}

impl Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &rhs.terms {
            out.add_term(m.clone(), *c);
        }
        out
    }
}

impl Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        let mut out = self.clone();
        for (m, c) in &rhs.terms {
            out.add_term(m.clone(), -*c);
        }
        out
    }
}

impl Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                out.add_term(ma.mul(mb), *ca * *cb);
            }
        }
        out
    }
}

impl Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        self.scale(-Rational::ONE)
    }
}

macro_rules! owned_ops {
    ($($trait:ident :: $m:ident),*) => {$(
        impl $trait for Poly {
            type Output = Poly;
            fn $m(self, rhs: Poly) -> Poly { $trait::$m(&self, &rhs) }
        }
    )*};
}
owned_ops!(Add::add, Sub::sub, Mul::mul);

impl Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        -&self
    }
}

impl AddAssign<&Poly> for Poly {
    fn add_assign(&mut self, rhs: &Poly) {
        for (m, c) in &rhs.terms {
            self.add_term(m.clone(), *c);
        }
    }
}

impl SubAssign<&Poly> for Poly {
    fn sub_assign(&mut self, rhs: &Poly) {
        for (m, c) in &rhs.terms {
            self.add_term(m.clone(), -*c);
        }
    }
}

impl MulAssign<&Poly> for Poly {
    fn mul_assign(&mut self, rhs: &Poly) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        // Sort for display: total degree descending, then reverse render
        // order (the sort is stable).
        let mut ts = self.render_terms();
        ts.reverse();
        ts.sort_by_key(|(factors, _)| {
            std::cmp::Reverse(factors.iter().map(|&(_, e)| e).sum::<u32>())
        });
        for (i, (factors, coeff)) in ts.iter().enumerate() {
            let neg = coeff.is_negative();
            let mag = coeff.abs();
            if i == 0 {
                if neg {
                    write!(f, "-")?;
                }
            } else if neg {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let mono_str = {
                let parts: Vec<String> = factors
                    .iter()
                    .map(|(v, e)| {
                        if *e == 1 {
                            format!("{v}")
                        } else {
                            format!("{v}^{e}")
                        }
                    })
                    .collect();
                parts.join("*")
            };
            if mono_str.is_empty() {
                write!(f, "{mag}")?;
            } else if mag.is_one() {
                write!(f, "{mono_str}")?;
            } else {
                write!(f, "{mag}*{mono_str}")?;
            }
        }
        Ok(())
    }
}

impl Poly {
    /// The terms in render order, each as its factors in render order and
    /// its coefficient.
    ///
    /// The map order of [`Poly`] follows [`Var`]'s interner index, so it
    /// depends on which names the process interned first. Rendering
    /// instead ranks variables by *name*, descending (`N` before `M`
    /// before `K`), and orders terms by their factors' ranks the way the
    /// map orders them by index: the same polynomial renders the same text
    /// whatever the process analyzed before. Names are fetched once per
    /// variable and the sort runs without the interner lock.
    pub(crate) fn render_terms(&self) -> Vec<(Vec<(Var, u32)>, Rational)> {
        let vars = self.vars();
        let names: Vec<String> = vars.iter().map(Var::name).collect();
        let mut by_name: Vec<usize> = (0..vars.len()).collect();
        by_name.sort_by(|&a, &b| names[b].cmp(&names[a]));
        let mut rank = vec![0usize; vars.len()];
        for (r, &i) in by_name.iter().enumerate() {
            rank[i] = r;
        }
        let rank_of = |v: Var| rank[vars.binary_search(&v).expect("variable of this poly")];
        let mut terms: Vec<(Vec<(Var, u32)>, Rational)> = self
            .terms
            .iter()
            .map(|(m, c)| {
                let mut factors = m.0.clone();
                factors.sort_by_key(|&(v, _)| rank_of(v));
                (factors, *c)
            })
            .collect();
        terms.sort_by_cached_key(|(factors, _)| {
            factors
                .iter()
                .map(|&(v, e)| (rank_of(v), e))
                .collect::<Vec<_>>()
        });
        terms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::var;
    use iolb_numeric::rational::rat;
    use proptest::prelude::*;

    fn m() -> Var {
        var("pm")
    }
    fn n() -> Var {
        var("pn")
    }

    #[test]
    fn construction_and_display() {
        let p = Poly::var(m()) * Poly::var(m()) + Poly::int(2) * Poly::var(n()) - Poly::int(3);
        assert_eq!(format!("{p}"), "pm^2 + 2*pn - 3");
        assert_eq!(p.degree_in(m()), 2);
        assert_eq!(p.degree_in(n()), 1);
        assert_eq!(p.total_degree(), 2);
    }

    #[test]
    fn zero_normalization() {
        let p = Poly::var(m()) - Poly::var(m());
        assert!(p.is_zero());
        assert_eq!(format!("{p}"), "0");
        assert_eq!(p.num_terms(), 0);
    }

    #[test]
    fn eval_exact() {
        // (m+n)^2 at m=3, n=4 → 49
        let p = (Poly::var(m()) + Poly::var(n())).pow(2);
        assert_eq!(p.eval_ints(&[(m(), 3), (n(), 4)]), Rational::int(49));
    }

    #[test]
    fn subst_composition() {
        // p(m) = m^2 + 1; subst m := n - 1 → n^2 - 2n + 2
        let p = Poly::var(m()).pow(2) + Poly::one();
        let q = p.subst(m(), &(Poly::var(n()) - Poly::one()));
        let expect = Poly::var(n()).pow(2) - Poly::int(2) * Poly::var(n()) + Poly::int(2);
        assert_eq!(q, expect);
    }

    #[test]
    fn coeff_extraction() {
        // m^2*n + 3m^2 + n: coeff of m^2 is (n+3)
        let p = Poly::var(m()).pow(2) * Poly::var(n())
            + Poly::int(3) * Poly::var(m()).pow(2)
            + Poly::var(n());
        assert_eq!(p.coeff_of(m(), 2), Poly::var(n()) + Poly::int(3));
        assert_eq!(p.coeff_of(m(), 0), Poly::var(n()));
        assert_eq!(p.coeff_of(m(), 1), Poly::zero());
    }

    #[test]
    fn exact_division() {
        let a = Poly::var(m()).pow(2) - Poly::var(n()).pow(2);
        let b = Poly::var(m()) - Poly::var(n());
        let q = a.div_exact(&b).expect("divisible");
        assert_eq!(q, Poly::var(m()) + Poly::var(n()));
        // Non-exact division returns None.
        let c = Poly::var(m()) + Poly::one();
        assert!(a.div_exact(&c).is_none());
    }

    #[test]
    fn content_extraction() {
        // 4m^2n + 6mn → content 2, monomial mn
        let p = Poly::int(4) * Poly::var(m()).pow(2) * Poly::var(n())
            + Poly::int(6) * Poly::var(m()) * Poly::var(n());
        let (c, mono) = p.content();
        assert_eq!(c, rat(2, 1));
        assert_eq!(mono.exponent(m()), 1);
        assert_eq!(mono.exponent(n()), 1);
    }

    #[test]
    fn scale_and_neg() {
        let p = Poly::var(m()) + Poly::int(1);
        assert_eq!(p.scale(rat(1, 2)).eval_ints(&[(m(), 3)]), rat(2, 1));
        assert_eq!((-&p).eval_ints(&[(m(), 3)]), Rational::int(-4));
    }

    /// Render order follows variable names, not interning order: the same
    /// polynomial over names interned in opposite orders renders the same
    /// text, both as a `Poly` and lifted into an `Expr`.
    #[test]
    fn render_order_ignores_interning_history() {
        let render = |first: &str, second: &str| {
            // Intern `first` before `second`, then build `b²·a + a·b - b`
            // where `a` has the smaller name and `b` the larger.
            let (x, y) = (var(first), var(second));
            let (a, b) = if first < second { (x, y) } else { (y, x) };
            let p = &(&Poly::var(b).pow(2) * &Poly::var(a))
                + &(&(&Poly::var(a) * &Poly::var(b)) - &Poly::var(b));
            let names = |t: String| t.replace(&a.name(), "A").replace(&b.name(), "B");
            (
                names(p.to_string()),
                names(crate::expr::Expr::from_poly(&p).to_string()),
            )
        };
        let forward = render("ro_fa", "ro_fb");
        let backward = render("ro_gb", "ro_ga");
        assert_eq!(forward, backward);
        assert_eq!(forward.0, "B^2*A + B*A - B", "names descending: B before A");
        assert_eq!(forward.1, "-1·B + B·A + B^2·A");
    }

    fn arb_poly(vs: [Var; 2]) -> impl Strategy<Value = Poly> {
        proptest::collection::vec((-4i128..=4, 0u32..=2, 0u32..=2), 0..5).prop_map(move |ts| {
            let mut p = Poly::zero();
            for (c, e0, e1) in ts {
                let mono = Monomial::var_pow(vs[0], e0).mul(&Monomial::var_pow(vs[1], e1));
                p = &p + &Poly::term(Rational::int(c), mono);
            }
            p
        })
    }

    proptest! {
        #[test]
        fn ring_axioms(a in arb_poly([var("pa"), var("pb")]),
                       b in arb_poly([var("pa"), var("pb")]),
                       c in arb_poly([var("pa"), var("pb")])) {
            prop_assert_eq!(&a + &b, &b + &a);
            prop_assert_eq!(&a * &b, &b * &a);
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
            prop_assert_eq!(&a - &a, Poly::zero());
        }

        #[test]
        fn eval_is_homomorphism(a in arb_poly([var("pa"), var("pb")]),
                                b in arb_poly([var("pa"), var("pb")]),
                                x in -5i128..5, y in -5i128..5) {
            let env = [(var("pa"), x), (var("pb"), y)];
            prop_assert_eq!((&a + &b).eval_ints(&env), a.eval_ints(&env) + b.eval_ints(&env));
            prop_assert_eq!((&a * &b).eval_ints(&env), a.eval_ints(&env) * b.eval_ints(&env));
        }

        #[test]
        fn div_exact_roundtrip(a in arb_poly([var("pa"), var("pb")]),
                               b in arb_poly([var("pa"), var("pb")])) {
            prop_assume!(!b.is_zero());
            let prod = &a * &b;
            let q = prod.div_exact(&b).expect("product is divisible");
            prop_assert_eq!(q, a);
        }

        #[test]
        fn subst_commutes_with_eval(a in arb_poly([var("pa"), var("pb")]),
                                    x in -4i128..4, y in -4i128..4) {
            // a[pa := pb+1] evaluated at pb=y equals a evaluated at pa=y+1, pb=y.
            let shifted = a.subst(var("pa"), &(Poly::var(var("pb")) + Poly::one()));
            let lhs = shifted.eval_ints(&[(var("pb"), y), (var("pa"), x)]);
            let rhs = a.eval_ints(&[(var("pa"), y + 1), (var("pb"), y)]);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
