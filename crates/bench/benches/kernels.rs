//! Kernel micro-benchmarks.
//!
//! Two families:
//!
//! * **Host kernel layer** (`host_kernels/*`) — the blocked,
//!   SIMD-friendly distance kernels of `ann_core::kernels` against their
//!   scalar reference forms in `ann_core::distance`. These are the loops
//!   that bound CL, LUT construction, ADC scans and k-means on the host.
//! * **Simulated DPU pipeline** (`kernels/*`) — the hot loops of the
//!   metered simulator. These measure *simulator* throughput (how fast we
//!   can simulate), and their cost-meter assertions double as regression
//!   guards on the modelled cycle counts.
//!
//! Running this bench (`cargo bench --bench kernels`) also writes
//! `BENCH_kernels.json` at the workspace root with per-benchmark medians
//! and the blocked-over-scalar speedups, so successive PRs accumulate a perf
//! trajectory. It fails if simulating the SQT arm of LC costs the host more
//! than [`LC_SQT_OVER_MULTIPLY_MAX`] times the multiply arm: the two build
//! the same table and differ only in how the squarings are charged.

use criterion::Criterion;
use drim_ann::config::DataBits;
use drim_ann::kernels::{dc, lc, KernelCtx};
use drim_ann::sqt::Sqt;
use drim_ann::wram::WramPlacement;
use upmem_sim::meter::PhaseMeter;
use upmem_sim::IsaCosts;

/// One-query-vs-N shape of the headline comparison (acceptance floor:
/// batch >= 64 rows, dim >= 96).
const N_ROWS: usize = 4096;
const DIM: usize = 96;

/// Ceiling on `kernels/lc_sqt` over `kernels/lc_multiply` host time (3.88
/// while the SQT arm metered every lookup; ~1.0 since both arms share one
/// build loop and book squarings in bulk).
const LC_SQT_OVER_MULTIPLY_MAX: f64 = 1.5;

fn pseudo_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

fn bench_host_kernels(c: &mut Criterion) {
    let q = pseudo_f32(DIM, 3);
    let rows = pseudo_f32(DIM * N_ROWS, 5);
    let norms = ann_core::kernels::row_norms_f32(&rows, DIM);

    let mut g = c.benchmark_group("host_kernels");

    // headline: one query vs N rows, scalar per-pair loop ...
    g.bench_function("l2_one_vs_n_scalar", |b| {
        let mut out = Vec::with_capacity(N_ROWS);
        b.iter(|| {
            out.clear();
            out.extend(
                rows.chunks_exact(DIM)
                    .map(|row| ann_core::distance::l2_sq_f32(&q, row)),
            );
            std::hint::black_box(out.last().copied())
        })
    });
    // ... vs the fused norm-decomposition batch kernel
    g.bench_function("l2_one_vs_n_blocked", |b| {
        let mut out = Vec::with_capacity(N_ROWS);
        b.iter(|| {
            ann_core::kernels::l2_sq_batch(&q, &rows, DIM, &norms, &mut out);
            std::hint::black_box(out.last().copied())
        })
    });

    // single-pair forms
    let a2 = pseudo_f32(DIM, 7);
    g.bench_function("l2_pair_scalar", |b| {
        b.iter(|| std::hint::black_box(ann_core::distance::l2_sq_f32(&q, &a2)))
    });
    g.bench_function("l2_pair_blocked", |b| {
        b.iter(|| std::hint::black_box(ann_core::kernels::l2_sq_f32(&q, &a2)))
    });

    // host-side ADC scan: pointwise gathers vs the 8-wide blocked scan.
    // Codes are scattered (as real PQ codes are) — sequential code
    // patterns would let the prefetcher hide the gathers and understate
    // the blocking benefit. (m, cb) go through black_box because search
    // paths receive them as runtime index parameters; constant-folding
    // them would let LLVM specialize the scalar loop into something no
    // real call site gets.
    let (m, cb) = (
        std::hint::black_box(16usize),
        std::hint::black_box(256usize),
    );
    let lut = pseudo_f32(m * cb, 9);
    let codes: Vec<u16> = (0..N_ROWS * m)
        .map(|i| ((i.wrapping_mul(2654435761)) % cb) as u16)
        .collect();
    g.bench_function("adc_scan_scalar", |b| {
        let mut out = Vec::with_capacity(N_ROWS);
        b.iter(|| {
            out.clear();
            for code in codes.chunks_exact(m) {
                let mut acc = 0.0f32;
                for (s, &ci) in code.iter().enumerate() {
                    acc += lut[s * cb + ci as usize];
                }
                out.push(acc);
            }
            std::hint::black_box(out.last().copied())
        })
    });
    g.bench_function("adc_scan_blocked", |b| {
        let mut out = Vec::with_capacity(N_ROWS);
        b.iter(|| {
            ann_core::kernels::adc_scan_f32(&codes, m, cb, &lut, &mut out);
            std::hint::black_box(out.last().copied())
        })
    });

    g.finish();
}

fn bench_sim_kernels(c: &mut Criterion) {
    let placement = WramPlacement::none();
    let costs = IsaCosts::upmem();
    let ctx = KernelCtx {
        costs: &costs,
        dma_burst: 8,
        bits: DataBits::B8,
        placement: &placement,
    };

    let mut g = c.benchmark_group("kernels");

    // LC: SQT vs native multiply (the Fig. 11a ablation, micro form)
    let (m, cb, dsub) = (16usize, 256usize, 8usize);
    let residual: Vec<u8> = (0..m * dsub).map(|i| (i * 7 % 256) as u8).collect();
    let codebooks: Vec<u8> = (0..m * cb * dsub).map(|i| (i * 13 % 256) as u8).collect();
    g.bench_function("lc_sqt", |b| {
        b.iter(|| {
            let mut meter = PhaseMeter::default();
            let mut sqt = Sqt::for_u8();
            let mut lut = Vec::new();
            lc::run(
                &ctx,
                &mut meter,
                &residual,
                &codebooks,
                m,
                cb,
                dsub,
                Some(&mut sqt),
                &mut lut,
            );
            std::hint::black_box((lut, meter.cycles))
        })
    });
    g.bench_function("lc_multiply", |b| {
        b.iter(|| {
            let mut meter = PhaseMeter::default();
            let mut lut = Vec::new();
            lc::run(
                &ctx, &mut meter, &residual, &codebooks, m, cb, dsub, None, &mut lut,
            );
            std::hint::black_box((lut, meter.cycles))
        })
    });

    // DC scan over 4096 points
    let codes: Vec<u16> = (0..4096 * m).map(|i| (i % cb) as u16).collect();
    let lut: Vec<u32> = (0..m * cb).map(|i| (i * 31 % 10_000) as u32).collect();
    g.bench_function("dc_scan_4096", |b| {
        b.iter(|| {
            let mut meter = PhaseMeter::default();
            let mut out = Vec::new();
            dc::run(&ctx, &mut meter, &codes, m, cb, &lut, u64::MAX, &mut out);
            std::hint::black_box(out.len())
        })
    });

    // top-k structures
    g.bench_function("bounded_heap_10_of_4096", |b| {
        b.iter(|| {
            let mut heap = ann_core::topk::BoundedMaxHeap::new(10);
            for i in 0..4096u64 {
                let d = ((i.wrapping_mul(2654435761)) % 100_000) as f32;
                heap.push(ann_core::topk::Neighbor::new(i, d));
            }
            std::hint::black_box(heap.into_sorted())
        })
    });
    g.bench_function("bitonic_sort_1024", |b| {
        b.iter(|| {
            let mut xs: Vec<f32> = (0..1024)
                .map(|i| ((i * 2654435761u64 as usize) % 100_000) as f32)
                .collect();
            ann_core::topk::bitonic_sort(&mut xs);
            std::hint::black_box(xs)
        })
    });

    g.finish();
}

/// Median time of `id`, if measured.
fn median(c: &Criterion, id: &str) -> Option<f64> {
    c.results().iter().find(|s| s.id == id).map(|s| s.median_ns)
}

/// Speedup of the blocked kernel over its scalar reference (scalar median
/// / blocked median) for a benchmark pair.
fn speedup(c: &Criterion, scalar: &str, blocked: &str) -> Option<f64> {
    Some(median(c, scalar)? / median(c, blocked)?)
}

fn write_json(c: &Criterion, lc_sqt_over_multiply: Option<f64>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let mut rows = String::new();
    for (i, s) in c.results().iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}}}",
            s.id, s.median_ns
        ));
    }
    let fmt = |v: Option<f64>| {
        v.map(|x| format!("{x:.2}"))
            .unwrap_or_else(|| "null".into())
    };
    let elems = (N_ROWS * DIM) as f64;
    let gelems = median(c, "host_kernels/l2_one_vs_n_blocked")
        .map(|ns| format!("{:.2}", elems / ns))
        .unwrap_or_else(|| "null".into());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"host_cores\": {host_cores},\n  \"shape\": {{\"one_vs_n_rows\": {N_ROWS}, \"dim\": {DIM}}},\n  \"speedup_blocked_over_scalar\": {{\n    \"l2_one_vs_n_f32\": {},\n    \"l2_pair_f32\": {},\n    \"adc_scan\": {}\n  }},\n  \"blocked_one_vs_n_gelem_per_s\": {gelems},\n  \"lc_sqt_over_multiply\": {},\n  \"results\": [\n{rows}\n  ]\n}}\n",
        fmt(speedup(c, "host_kernels/l2_one_vs_n_scalar", "host_kernels/l2_one_vs_n_blocked")),
        fmt(speedup(c, "host_kernels/l2_pair_scalar", "host_kernels/l2_pair_blocked")),
        fmt(speedup(c, "host_kernels/adc_scan_scalar", "host_kernels/adc_scan_blocked")),
        fmt(lc_sqt_over_multiply),
    );
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_host_kernels(&mut c);
    bench_sim_kernels(&mut c);
    c.final_summary();
    let lc_sqt_over_multiply = speedup(&c, "kernels/lc_sqt", "kernels/lc_multiply");
    write_json(&c, lc_sqt_over_multiply);
    if let Some(ratio) = lc_sqt_over_multiply {
        assert!(
            ratio <= LC_SQT_OVER_MULTIPLY_MAX,
            "simulating LC with the SQT costs the host {ratio:.2}x the multiply arm \
             (ceiling {LC_SQT_OVER_MULTIPLY_MAX}): the SQT arm is metering per element again"
        );
    }
}
