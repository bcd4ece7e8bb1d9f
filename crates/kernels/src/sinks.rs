//! Bridge from the IR interpreter to the cache simulators: one
//! interpreter run fills a packed trace, and both policies replay it.

use iolb_ir::{ArrayId, Program};
use iolb_memsim::{BeladySim, IoStats, LruSim};

/// Runs `program` once at `params` with input init `f(array, flat)` and
/// returns `(LRU, MIN)` statistics for fast-memory capacity `s` from the
/// same packed trace — one interpreter execution, one trace, both
/// policies (MIN is Belady's optimal replacement).
pub fn measure_lru_min_io(
    program: &Program,
    params: &[i64],
    s: usize,
    init: impl FnMut(ArrayId, usize) -> f64,
) -> (IoStats, IoStats) {
    let mut sink = iolb_ir::TraceSink::new(program, params);
    let mut store = iolb_ir::Store::init(program, params, init);
    iolb_ir::Interpreter::new(program, params).run(&mut store, &mut sink);
    let mut lru = LruSim::with_cells(s, sink.num_cells);
    lru.run_packed(&sink.packed);
    (lru.finish(), BeladySim::new(s).run_packed(&sink.packed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_ir::{Access as IrAccess, ProgramBuilder};

    /// Two sequential passes over x[0..N].
    fn two_pass() -> iolb_ir::Program {
        let mut b = ProgramBuilder::new("two_pass_sink", &["N"]);
        let x = b.array("x", &[b.p("N")]);
        let acc = b.scalar("acc");
        let wa = IrAccess::new(acc, vec![]);
        b.stmt("Z", vec![], vec![wa.clone()], move |c| c.wr(acc, &[], 0.0));
        for pass in 0..2 {
            let i = b.open("i", b.c(0), b.p("N"));
            let xi = IrAccess::new(x, vec![b.d(i)]);
            let nm = format!("S{pass}");
            b.stmt(&nm, vec![xi, wa.clone()], vec![wa.clone()], move |c| {
                let v = c.rd(x, &[c.v(0)]) + c.rd(acc, &[]);
                c.wr(acc, &[], v);
            });
            b.close();
        }
        b.finish()
    }

    #[test]
    fn lru_measures_reuse() {
        let p = two_pass();
        // Capacity 4 < N=8 (+acc): thrash → 16 loads of x.
        let (small, _) = measure_lru_min_io(&p, &[8], 4, |_, f| f as f64);
        assert_eq!(small.loads, 16);
        // Capacity 16 keeps x resident: 8 loads.
        let (big, _) = measure_lru_min_io(&p, &[8], 16, |_, f| f as f64);
        assert_eq!(big.loads, 8);
    }

    #[test]
    fn min_never_worse_than_lru() {
        let p = two_pass();
        for s in [2usize, 3, 5, 9, 20] {
            let (lru, min) = measure_lru_min_io(&p, &[8], s, |_, f| f as f64);
            assert!(min.loads <= lru.loads, "S={s}");
        }
    }
}
