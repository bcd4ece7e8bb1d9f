//! Body comparison.
//!
//! The `classical`, `split` and `hourglass` summary lines of a `serve/v1`
//! body render symbolic expressions whose term and factor order follows
//! the order in which the process first interned each variable name
//! (`iolb_symbolic::Var` orders by interning index), so the same key can
//! render differently after a different history of earlier requests.
//! Every other line must match byte for byte. A summary line that
//! differs in bytes must still hold the same fields and, for every
//! expression, the same value at several points; such a body is counted
//! as a history-dependent rendering and reported, not passed silently.

use iolb_service::json::{self, Value};

/// Top-level fields whose symbolic expressions render in history order.
pub const SUMMARY_FIELDS: [&str; 3] = ["classical", "split", "hourglass"];

/// A body split into the digest of its order-independent lines and its
/// summary values (raw JSON text, without the trailing comma).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parts {
    pub rest_digest: u128,
    pub summaries: [String; 3],
}

pub fn parts(body: &str) -> Parts {
    let mut rest = String::with_capacity(body.len());
    let mut summaries: [String; 3] = Default::default();
    for line in body.split_inclusive('\n') {
        let field = SUMMARY_FIELDS
            .iter()
            .position(|f| line.starts_with(&format!("  \"{f}\": ")));
        match field {
            Some(i) => {
                let value = &line[SUMMARY_FIELDS[i].len() + 6..];
                summaries[i] = value.trim_end().trim_end_matches(',').to_string();
            }
            None => rest.push_str(line),
        }
    }
    Parts {
        rest_digest: iolb_service::fnv1a_128(rest.as_bytes()),
        summaries,
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    /// Equal but for the term or factor order of symbolic expressions.
    Reordered,
    Differs(String),
}

pub fn compare(got: &Parts, want: &Parts) -> Verdict {
    if got.rest_digest != want.rest_digest {
        return Verdict::Differs("body differs from its reference".to_string());
    }
    let mut verdict = Verdict::Identical;
    for (i, field) in SUMMARY_FIELDS.iter().enumerate() {
        if got.summaries[i] == want.summaries[i] {
            continue;
        }
        match (
            json::parse(&got.summaries[i]),
            json::parse(&want.summaries[i]),
        ) {
            (Ok(a), Ok(b)) if same_value(&a, &b) => verdict = Verdict::Reordered,
            _ => return Verdict::Differs(format!("`{field}` differs from its reference")),
        }
    }
    verdict
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Obj(x), Value::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && same_value(va, vb))
        }
        (Value::Str(x), Value::Str(y)) => x == y || same_expression(x, y),
        _ => a == b,
    }
}

/// Whether two rendered expressions agree at several points.
fn same_expression(a: &str, b: &str) -> bool {
    (0..4).all(|point| match (eval(a, point), eval(b, point)) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => false,
    })
}

/// Evaluates a rendered expression with every variable bound to a
/// value derived from its name and `point`.
pub fn eval(src: &str, point: u64) -> Option<f64> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens: &tokens,
        at: 0,
        point,
    };
    let v = p.expr()?;
    (p.at == tokens.len() && v.is_finite()).then_some(v)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Var(String),
    Op(char),
}

/// Numbers are rationals written without spaces (`7/6`); `/` elsewhere
/// divides; `^` takes a signed rational exponent (`S^-1/2`).
fn lex(src: &str) -> Option<Vec<Tok>> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let digits = |i: &mut usize| {
        let start = *i;
        while *i < chars.len() && chars[*i].is_ascii_digit() {
            *i += 1;
        }
        chars[start..*i]
            .iter()
            .collect::<String>()
            .parse::<f64>()
            .ok()
    };
    while i < chars.len() {
        let c = chars[i];
        if c == ' ' {
            i += 1;
        } else if c.is_ascii_digit() {
            let mut v = digits(&mut i)?;
            if i + 1 < chars.len() && chars[i] == '/' && chars[i + 1].is_ascii_digit() {
                i += 1;
                v /= digits(&mut i)?;
            }
            out.push(Tok::Num(v));
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Tok::Var(chars[start..i].iter().collect()));
        } else if "+-/()^".contains(c) {
            out.push(Tok::Op(c));
            i += 1;
        } else if c == '·' || c == '*' {
            out.push(Tok::Op('*'));
            i += 1;
        } else {
            return None;
        }
    }
    Some(out)
}

struct Parser<'a> {
    tokens: &'a [Tok],
    at: usize,
    point: u64,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.at)
    }

    fn eat(&mut self, op: char) -> bool {
        if self.peek() == Some(&Tok::Op(op)) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Option<f64> {
        let mut v = self.term()?;
        loop {
            if self.eat('+') {
                v += self.term()?;
            } else if self.eat('-') {
                v -= self.term()?;
            } else {
                return Some(v);
            }
        }
    }

    fn term(&mut self) -> Option<f64> {
        let mut v = self.unary()?;
        loop {
            if self.eat('*') {
                v *= self.unary()?;
            } else if self.eat('/') {
                v /= self.unary()?;
            } else {
                return Some(v);
            }
        }
    }

    fn unary(&mut self) -> Option<f64> {
        if self.eat('-') {
            return Some(-self.unary()?);
        }
        let base = self.atom()?;
        if !self.eat('^') {
            return Some(base);
        }
        let sign = if self.eat('-') { -1.0 } else { 1.0 };
        match self.peek() {
            Some(Tok::Num(e)) => {
                let e = *e;
                self.at += 1;
                Some(base.powf(sign * e))
            }
            _ => None,
        }
    }

    fn atom(&mut self) -> Option<f64> {
        match self.peek()?.clone() {
            Tok::Num(v) => {
                self.at += 1;
                Some(v)
            }
            Tok::Var(name) => {
                self.at += 1;
                let h = iolb_service::fnv1a_128(format!("{name}/{}", self.point).as_bytes());
                Some(11.0 + (h % 89) as f64)
            }
            Tok::Op('(') => {
                self.at += 1;
                let v = self.expr()?;
                self.eat(')').then_some(v)
            }
            Tok::Op(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_bounds_evaluate() {
        assert!(eval("(1 / 1/2)·(N·M·K + -1·N·K)·S^-1/2", 0).is_some());
        let m = 5.0f64;
        let s = |e: &str| eval(&e.replace('M', "5").replace('S', "4"), 0).unwrap();
        assert_eq!(s("M - 1"), m - 1.0);
        assert_eq!(s("-M + 1"), 1.0 - m);
        assert_eq!(s("(1/2^3/2 / 1/2)·M"), 0.5f64.powf(1.5) / 0.5 * m);
        assert_eq!(s("S^-1/2"), 0.5);
        assert_eq!(s("M/2 - 1"), 1.5);
        assert_eq!(eval("M +", 0), None);
        assert_eq!(eval("M # 2", 0), None);
    }

    fn body(classical: &str, rows: &str) -> String {
        format!("{{\n  \"schema\": \"x\",\n  \"classical\": {classical},\n  \"split\": null,\n  \"hourglass\": null,\n  \"sweep\": {rows}\n}}\n")
    }

    #[test]
    fn reordered_terms_are_told_apart_from_changes() {
        let a = body(
            "{\"sigma\": \"3/2\", \"expr\": \"(1 / 1/2)·(N·M·K + -1·N·K)·S^-1/2\"}",
            "[1]",
        );
        let reordered = body(
            "{\"sigma\": \"3/2\", \"expr\": \"(1 / 1/2)·(-1·N·K + N·K·M)·S^-1/2\"}",
            "[1]",
        );
        let changed = body(
            "{\"sigma\": \"3/2\", \"expr\": \"(1 / 1/2)·(N·M·K + -2·N·K)·S^-1/2\"}",
            "[1]",
        );
        let other_rows = body(
            "{\"sigma\": \"3/2\", \"expr\": \"(1 / 1/2)·(N·M·K + -1·N·K)·S^-1/2\"}",
            "[2]",
        );
        let other_sigma = body(
            "{\"sigma\": \"1\", \"expr\": \"(1 / 1/2)·(N·M·K + -1·N·K)·S^-1/2\"}",
            "[1]",
        );
        let want = parts(&a);
        assert_eq!(compare(&parts(&a), &want), Verdict::Identical);
        assert_eq!(compare(&parts(&reordered), &want), Verdict::Reordered);
        assert!(matches!(
            compare(&parts(&changed), &want),
            Verdict::Differs(_)
        ));
        assert!(matches!(
            compare(&parts(&other_rows), &want),
            Verdict::Differs(_)
        ));
        assert!(matches!(
            compare(&parts(&other_sigma), &want),
            Verdict::Differs(_)
        ));
        assert_eq!(parts(&a).summaries[1], "null");
    }
}
