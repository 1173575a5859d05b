//! Recall/result parity between the blocked kernel layer and scalar
//! reference pipelines.
//!
//! The blocked kernels (`ann_core::kernels`) reassociate float sums and use
//! the `‖q‖² − 2·q·c + ‖c‖²` decomposition; these tests pin down that none
//! of that changes *results*: cluster locating, k-means assignment, and
//! end-to-end IVF-PQ top-k all match an independently written scalar
//! implementation on real workloads. PQ encoding is held to more than
//! results: every code equals a per-row reference bit for bit, on inputs
//! built so that a one-ULP change in any distance or a wrong tie-break
//! changes a code. The engine's in-place top-k kernel is held to the
//! candidate-list kernel the same way: equal lock statistics, meters and
//! retained lists on every seeded stream. Exact search and k-means++
//! seeding, both vectorised across rows of a transposed copy, are held to
//! their per-query and per-point loops (ids and distance bits, seed bits),
//! and a pinned digest holds every bit of a small `IvfPqIndex::build`.

use ann_core::distance;
use ann_core::ivf::{IvfPqIndex, IvfPqParams};
use ann_core::pq::ProductQuantizer;
use ann_core::topk::{BoundedMaxHeap, Neighbor};
use ann_core::vector::VecSet;
use drim_ann::config::DataBits;
use drim_ann::kernels::{ts, KernelCtx};
use drim_ann::wram::{WramCandidate, WramPlacement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use upmem_sim::meter::PhaseMeter;
use upmem_sim::tasklet::LockPolicy;
use upmem_sim::IsaCosts;

fn workload(n: usize, dim: usize, seed: u64) -> (VecSet<f32>, VecSet<f32>) {
    let spec = datasets::SynthSpec::small("kernel-parity", dim, n, seed);
    let data = datasets::generate(&spec);
    let queries = datasets::queries::generate_queries(
        &spec,
        16,
        datasets::queries::QuerySkew::InDistribution,
        7,
    );
    (data, queries)
}

/// Scalar reference cluster locating: per-pair `distance::l2_sq_f32`.
fn locate_scalar(coarse: &VecSet<f32>, q: &[f32], nprobe: usize) -> Vec<u32> {
    let mut heap = BoundedMaxHeap::new(nprobe.min(coarse.len()).max(1));
    for (c, row) in coarse.iter().enumerate() {
        heap.push(Neighbor::new(c as u64, distance::l2_sq_f32(q, row)));
    }
    heap.into_sorted()
        .into_iter()
        .map(|n| n.id as u32)
        .collect()
}

/// Scalar reference IVF-PQ search: scalar LUT build, scalar ADC gather sum,
/// no bound pruning (every candidate offered to the heap).
fn search_scalar(idx: &IvfPqIndex, q: &[f32], nprobe: usize, k: usize) -> Vec<Neighbor> {
    let pq = &idx.quant;
    let (m, cb, dsub) = (idx.params.m, idx.params.cb, pq.dsub);
    let probes = locate_scalar(&idx.coarse, q, nprobe);
    let mut heap = BoundedMaxHeap::new(k);
    let mut residual = vec![0.0f32; idx.dim];
    for c in probes {
        let list = &idx.lists[c as usize];
        if list.is_empty() {
            continue;
        }
        ann_core::ivf::residual_into(q, idx.coarse.get(c as usize), &mut residual);
        // scalar LUT: per (subspace, codeword) pair, single-fold distance
        // over the zero-padded subvector
        let mut lut = vec![0.0f32; m * cb];
        for s in 0..m {
            let mut sub = vec![0.0f32; dsub];
            for d in 0..dsub {
                if s * dsub + d < residual.len() {
                    sub[d] = residual[s * dsub + d];
                }
            }
            let cbk = pq.codebook(s);
            for (j, row) in cbk.chunks_exact(dsub).enumerate() {
                lut[s * cb + j] = distance::l2_sq_f32(&sub, row);
            }
        }
        for (slot, code) in list.codes.chunks_exact(m).enumerate() {
            let mut acc = 0.0f32;
            for (s, &cidx) in code.iter().enumerate() {
                acc += lut[s * cb + cidx as usize];
            }
            heap.push(Neighbor::new(list.ids[slot] as u64, acc));
        }
    }
    heap.into_sorted()
}

#[test]
fn locate_matches_scalar_reference() {
    let (data, queries) = workload(3000, 16, 21);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(48).m(8).cb(32));
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let fused: Vec<u32> = idx.locate(q, 8).into_iter().map(|(c, _)| c).collect();
        let scalar = locate_scalar(&idx.coarse, q, 8);
        assert_eq!(fused, scalar, "query {qi}");
    }
}

#[test]
fn search_matches_scalar_reference_topk() {
    let (data, queries) = workload(4000, 16, 33);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(64).m(8).cb(32));
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let blocked: Vec<u64> = idx.search(q, 12, 10).iter().map(|n| n.id).collect();
        let scalar: Vec<u64> = search_scalar(&idx, q, 12, 10)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(blocked, scalar, "query {qi}");
    }
}

#[test]
fn assign_matches_scalar_argmin() {
    let (data, _) = workload(2500, 24, 45);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(32).m(8).cb(16));
    let assigned = ann_core::kmeans::assign(&data, &idx.coarse);
    for (i, &a) in assigned.iter().enumerate() {
        let v = data.get(i);
        let mut best = (0u32, f32::INFINITY);
        for (c, row) in idx.coarse.iter().enumerate() {
            let d = distance::l2_sq_f32(v, row);
            if d < best.1 {
                best = (c as u32, d);
            }
        }
        assert_eq!(a, best.0, "point {i}");
    }
}

#[test]
fn recall_identical_between_pipelines() {
    let (data, queries) = workload(4000, 16, 57);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(64).m(8).cb(32));
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    let blocked: Vec<Vec<Neighbor>> = (0..queries.len())
        .map(|qi| idx.search(queries.get(qi), 12, 10))
        .collect();
    let scalar: Vec<Vec<Neighbor>> = (0..queries.len())
        .map(|qi| search_scalar(&idx, queries.get(qi), 12, 10))
        .collect();
    let rb = ann_core::recall::mean_recall(&blocked, &truth, 10);
    let rs = ann_core::recall::mean_recall(&scalar, &truth, 10);
    assert_eq!(rb, rs, "blocked {rb} vs scalar {rs}");
    assert!(rb > 0.6, "sanity: recall {rb}");
}

#[test]
fn wide_subvectors_exercise_the_unrolled_chunks() {
    // dim 96, m 12 -> dsub 8: every subvector fills one full unroll chunk,
    // so the LUT build goes through the multi-accumulator path (reassociated
    // sums) rather than the scalar-tail path
    let (data, queries) = workload(2000, 96, 81);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(32).m(12).cb(32));
    let truth = ann_core::flat::ground_truth(&queries, &data, 10);
    let blocked: Vec<Vec<Neighbor>> = (0..queries.len())
        .map(|qi| idx.search(queries.get(qi), 8, 10))
        .collect();
    let scalar: Vec<Vec<Neighbor>> = (0..queries.len())
        .map(|qi| search_scalar(&idx, queries.get(qi), 8, 10))
        .collect();
    let rb = ann_core::recall::mean_recall(&blocked, &truth, 10);
    let rs = ann_core::recall::mean_recall(&scalar, &truth, 10);
    // reassociation may move individual distances by ULPs; the retrieved
    // neighbor sets — and therefore recall — must not move at all
    assert_eq!(rb, rs, "blocked {rb} vs scalar {rs}");
}

#[test]
fn lut_batch_rows_bit_identical_to_per_query_lut() {
    // the batched, GEMM-formulated LUT build promises bit-parity with
    // per-query lut(), including dims that pad (dsub not a multiple of the
    // unroll width)
    for (dim, m, cb) in [(16usize, 8usize, 32usize), (13, 4, 16), (96, 12, 32)] {
        let (data, queries) = workload(1200, dim, 91 + dim as u64);
        let pq = ann_core::pq::ProductQuantizer::train(&data, &ann_core::pq::PqParams::new(m, cb));
        let batch = pq.lut_batch(&queries);
        assert_eq!(batch.len(), queries.len() * m * cb);
        for qi in 0..queries.len() {
            let single = pq.lut(queries.get(qi));
            let row = &batch[qi * m * cb..(qi + 1) * m * cb];
            for (j, (&a, &b)) in row.iter().zip(single.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dim {dim} query {qi} entry {j}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn adc_results_unchanged_by_batched_luts() {
    // end to end: scanning a probed cluster with a lut_batch row gives the
    // same adc() distances — and the same search top-k — as per-query luts
    let (data, queries) = workload(3000, 16, 77);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(48).m(8).cb(32));
    let pq = &idx.quant;
    let (m, cb) = (idx.params.m, idx.params.cb);
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let probes = idx.locate(q, 8);
        // residuals of the probed clusters, batched and per-query
        let mut residuals = VecSet::new(idx.dim);
        let mut residual = vec![0.0f32; idx.dim];
        let mut clusters = Vec::new();
        for &(c, _) in &probes {
            if idx.lists[c as usize].is_empty() {
                continue;
            }
            ann_core::ivf::residual_into(q, idx.coarse.get(c as usize), &mut residual);
            residuals.push(&residual);
            clusters.push(c);
        }
        let luts = idx.quant.lut_batch(&residuals);
        for (pi, &c) in clusters.iter().enumerate() {
            let single = idx.quant.lut(residuals.get(pi));
            let row = &luts[pi * m * cb..(pi + 1) * m * cb];
            let list = &idx.lists[c as usize];
            for code in list.codes.chunks_exact(m) {
                let a = pq.adc(row, code);
                let b = pq.adc(&single, code);
                assert_eq!(a.to_bits(), b.to_bits(), "query {qi} cluster {c}");
            }
        }
    }
}

#[test]
fn locate_batch_matches_per_query_locate() {
    // the GEMM-batched CL path must probe the same clusters as the
    // per-query fused kernel. The two associate the dot-product sum
    // differently (8-lane tree vs ascending-k chain), so distances may
    // differ in low-order bits and near-ULP ties may swap adjacent ranks:
    // assert set equality plus per-rank distance agreement, and order
    // agreement wherever ranks are separated by more than ULP noise.
    let spec = datasets::SynthSpec::small("kernel-parity", 24, 2500, 103);
    let data = datasets::generate(&spec);
    // 37 queries: crosses the 32-query GEMM block with a ragged remainder
    let queries = datasets::queries::generate_queries(
        &spec,
        37,
        datasets::queries::QuerySkew::InDistribution,
        7,
    );
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(40).m(8).cb(16));
    let batch = idx.locate_batch(&queries, 7);
    assert_eq!(batch.len(), queries.len());
    let rel_tol = 1e-5f32;
    for (qi, batched) in batch.iter().enumerate() {
        let single = idx.locate(queries.get(qi), 7);
        assert_eq!(batched.len(), single.len(), "query {qi}");
        let set = |ps: &[(u32, f32)]| -> std::collections::BTreeSet<u32> {
            ps.iter().map(|p| p.0).collect()
        };
        assert_eq!(set(batched), set(&single), "query {qi}: probe sets differ");
        // reassociation error lives at the scale of the decomposition's
        // operands (‖q‖² + ‖c‖²), not of the (possibly cancelled) distance
        let qn = ann_core::kernels::norm_sq_f32(queries.get(qi));
        for (rank, (b, s)) in batched.iter().zip(single.iter()).enumerate() {
            let scale = (qn + idx.coarse_norms[b.0 as usize]).max(1.0);
            assert!(
                (b.1 - s.1).abs() / scale <= rel_tol,
                "query {qi} rank {rank}: {} vs {}",
                b.1,
                s.1
            );
            if b.0 != s.0 {
                // a swap is only legitimate between near-tied ranks
                let gap = (b.1 - s.1).abs() / scale;
                assert!(
                    gap <= rel_tol,
                    "query {qi} rank {rank}: ids {} vs {} without a near-tie",
                    b.0,
                    s.0
                );
            }
        }
    }
}

#[test]
fn non_multiple_of_block_dims_and_lengths() {
    // dim 13 (not a multiple of 8), m 4 -> dsub 4 with padding; list
    // lengths arbitrary so the 8-wide ADC remainder path is exercised
    let (data, queries) = workload(1999, 13, 69);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(24).m(4).cb(16));
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let blocked: Vec<u64> = idx.search(q, 6, 7).iter().map(|n| n.id).collect();
        let scalar: Vec<u64> = search_scalar(&idx, q, 6, 7).iter().map(|n| n.id).collect();
        assert_eq!(blocked, scalar, "query {qi}");
    }
}

/// Deterministic value stream for the encode oracle.
struct Stream(u64);

impl Stream {
    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        ((self.unit() + 1.0) * 0.5 * n as f32) as usize % n
    }

    /// The next 32 bits.
    fn word(&mut self) -> u32 {
        self.unit();
        (self.0 >> 32) as u32
    }
}

/// The encode reference: each zero-padded subvector against each codeword
/// with `kernels::l2_sq_f32`, one row at a time, then a sequential
/// strict-`<` scan from `(0, ∞)`.
fn encode_reference(pq: &ProductQuantizer, v: &[f32]) -> Vec<u16> {
    (0..pq.m)
        .map(|s| {
            let sub: Vec<f32> = (0..pq.dsub)
                .map(|d| v.get(s * pq.dsub + d).copied().unwrap_or(0.0))
                .collect();
            let mut best = (0u16, f32::INFINITY);
            for (j, row) in pq.codebook(s).chunks_exact(pq.dsub).enumerate() {
                let d = ann_core::kernels::l2_sq_f32(&sub, row);
                if d < best.1 {
                    best = (j as u16, d);
                }
            }
            best.0
        })
        .collect()
}

/// The codebook families of the oracle, `m * cb * dsub` flat.
fn oracle_codebooks(family: usize, m: usize, cb: usize, dsub: usize, st: &mut Stream) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * cb * dsub);
    for _ in 0..m {
        let base: Vec<f32> = (0..dsub)
            .map(|d| (1.5 + st.unit() * 0.5) * (2.0f32).powi(d as i32 % 5 - 2))
            .collect();
        let mut book: Vec<f32> = Vec::with_capacity(cb * dsub);
        for j in 0..cb {
            match family {
                // random codewords; every third repeats a lower-indexed one,
                // in the same block position or another
                0 if j % 3 == 2 => {
                    let src = (j / 3) * dsub;
                    book.extend_from_within(src..src + dsub);
                }
                0 => book.extend((0..dsub).map(|_| st.unit() * 4.0)),
                // permutations of one vector: equal distances as reals from
                // any constant subvector, so rounding alone picks the code
                1 => {
                    let mut p = base.clone();
                    for i in (1..dsub).rev() {
                        p.swap(i, st.below(i + 1));
                    }
                    book.extend(p);
                }
                // one codeword repeated cb times
                2 => book.extend_from_slice(&base),
                // random, with NaN / ±∞ components in some codewords
                _ => book.extend((0..dsub).map(|_| match st.below(23) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => st.unit() * 4.0,
                })),
            }
        }
        out.extend(book);
    }
    out
}

/// Inputs of dimension `dim`: random, constant, one copied codeword per
/// subspace, and random with NaN / ±∞ components.
fn oracle_inputs(pq: &ProductQuantizer, st: &mut Stream) -> Vec<Vec<f32>> {
    let dim = pq.dim;
    let mut inputs = Vec::new();
    for i in 0..48 {
        let v: Vec<f32> = match i % 4 {
            0 => (0..dim).map(|_| st.unit() * 4.0).collect(),
            1 => vec![st.unit() * 3.0; dim],
            2 => (0..pq.m)
                .flat_map(|s| {
                    let j = st.below(pq.cb);
                    pq.codebook(s)[j * pq.dsub..(j + 1) * pq.dsub].to_vec()
                })
                .take(dim)
                .collect(),
            _ => (0..dim)
                .map(|_| match st.below(7) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    _ => st.unit() * 4.0,
                })
                .collect(),
        };
        inputs.push(v);
    }
    inputs
}

#[test]
fn encode_matches_the_per_row_reference_bit_for_bit() {
    // dsub below, at and above the 8-lane width: 0-3 lane chunks (three
    // tell a reversed chunk order apart) and tails of 0-3 dims; cb around
    // the 16-codeword block and above u8; dim = 3 * dsub - 1, so the last
    // subspace is zero-padded
    let mut st = Stream(0xE4C0DE);
    let mut high_codes = 0usize;
    for dsub in [1usize, 2, 3, 4, 7, 8, 9, 11, 16, 17, 19, 26] {
        for cb in [2usize, 15, 16, 17, 256, 300] {
            let (m, dim) = (3usize, 3 * dsub - 1);
            for family in 0..4 {
                let books = oracle_codebooks(family, m, cb, dsub, &mut st);
                let pq = ProductQuantizer::from_codebooks(dim, m, cb, books);
                for (i, v) in oracle_inputs(&pq, &mut st).iter().enumerate() {
                    let got = pq.encode(v);
                    assert_eq!(
                        got,
                        encode_reference(&pq, v),
                        "dsub {dsub} cb {cb} family {family} input {i}: {v:?}"
                    );
                    high_codes += got.iter().filter(|&&c| c > 255).count();
                }
            }
        }
    }
    assert!(high_codes > 0, "cb 300 must produce codes above 255");
}

#[test]
fn reloaded_index_assign_encodes_like_the_original() {
    // persist::load rebuilds the quantizer through from_codebooks, caches
    // and all
    let spec = datasets::SynthSpec::small("kernel-parity", 20, 2000, 151);
    let data = datasets::generate(&spec);
    let probes = datasets::queries::generate_queries(
        &spec,
        1000,
        datasets::queries::QuerySkew::InDistribution,
        3,
    );
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(16).m(6).cb(32));
    let mut blob = Vec::new();
    ann_core::persist::save(&idx, &mut blob).unwrap();
    let back = ann_core::persist::load(&blob[..]).unwrap();
    for (i, v) in probes.iter().enumerate() {
        assert_eq!(back.assign_encode(v), idx.assign_encode(v), "vector {i}");
    }
}

/// One slice of a query's TS stream: its distances and ids by list
/// offset, and the ids pending deletion.
struct TsSlice {
    dists: Vec<u32>,
    ids: Vec<u32>,
    tomb: BTreeSet<u32>,
}

/// Stream `slices` into one query's queue both ways, slice after slice: as
/// the engine stages them for `ts::run` (pairs, tombstones dropped by
/// `retain`) into a `BoundedMaxHeap`, and as it now runs them — in place,
/// or over the live pairs compacted into scratch — into a `PackedTopk`.
/// Lock statistics, meters, bounds and retained lists must agree after
/// every slice, so a queue pre-filled by earlier slices is covered too.
fn assert_ts_kernels_agree(
    case: &str,
    ctx: &KernelCtx<'_>,
    k: usize,
    policy: LockPolicy,
    slices: &[TsSlice],
) {
    let (mut heap, mut packed) = (BoundedMaxHeap::new(k), ts::PackedTopk::new(k));
    let (mut want_meter, mut got_meter) = (PhaseMeter::default(), PhaseMeter::default());
    let (mut live_ids, mut live_dists) = (Vec::new(), Vec::new());
    for (i, s) in slices.iter().enumerate() {
        let case = format!("{case} slice {i}");
        let mut staged: Vec<(u32, u64)> = (0u32..)
            .zip(&s.dists)
            .map(|(slot, &d)| (slot, d as u64))
            .collect();
        staged.retain(|&(slot, _)| !s.tomb.contains(&s.ids[slot as usize]));
        let want = ts::run(ctx, &mut want_meter, &staged, &s.ids, &mut heap, k, policy);

        let (mut ids, mut dists) = (&s.ids[..], &s.dists[..]);
        if !s.tomb.is_empty() {
            live_ids.clear();
            live_dists.clear();
            for (&id, &d) in ids.iter().zip(dists) {
                if !s.tomb.contains(&id) {
                    live_ids.push(id);
                    live_dists.push(d);
                }
            }
            (ids, dists) = (&live_ids, &live_dists);
        }
        let got = ts::run_in_place(ctx, &mut got_meter, dists, ids, &mut packed, k, policy);

        assert_eq!(got, want, "{case}");
        assert_eq!(got_meter, want_meter, "{case}");
        assert_eq!(
            ts::Queue::bound(&packed).to_bits(),
            heap.bound().to_bits(),
            "{case}"
        );
        assert_eq!(
            packed.clone().into_sorted(),
            heap.clone().into_sorted(),
            "{case}"
        );
    }
}

/// `n` distances of one shape: `Ties` draws from eight values, so once a
/// queue fills, many candidates equal its forwarded bound; `Wide` draws
/// from all of `u32`, where distinct distances above 2^24 round to one
/// `f32` and tie-break by id; `Descending` retains nearly every candidate.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Ties,
    Wide,
    Descending,
}

fn ts_dists(shape: Shape, n: usize, st: &mut Stream) -> Vec<u32> {
    match shape {
        Shape::Ties => (0..n).map(|_| 100 + st.below(8) as u32).collect(),
        Shape::Wide => (0..n).map(|_| st.word()).collect(),
        Shape::Descending => (0..n)
            .map(|i| ((n - i) as u32) << 20 | st.below(1 << 20) as u32)
            .collect(),
    }
}

#[test]
fn in_place_top_k_matches_the_staged_kernel() {
    let costs = IsaCosts::upmem();
    let spilled = WramPlacement::none();
    let resident = drim_ann::wram::plan(
        &[WramCandidate {
            name: "topk",
            bytes: 800,
            accesses: 1e9,
        }],
        1 << 20,
    );
    assert!(resident.is_resident("topk") && !spilled.is_resident("topk"));
    let mut st = Stream(0x7095_EED5);
    let mut cases = 0;
    for placement in [&spilled, &resident] {
        let ctx = KernelCtx {
            costs: &costs,
            dma_burst: 8,
            bits: DataBits::B8,
            placement,
        };
        for k in [1usize, 10, 100] {
            for policy in [LockPolicy::Forwarding, LockPolicy::LockAlways] {
                for shape in [Shape::Ties, Shape::Wide, Shape::Descending] {
                    // per query: slice lengths (the first queries' total
                    // stays under k), and whether tombstones are pending
                    let queries: [(&[usize], bool); 6] = [
                        (&[0], false),
                        (&[k / 2, k / 3], false),
                        (&[31, 32, 33], false),
                        (&[200, 97, 1], false),
                        (&[64, 130], true),
                        (&[700, 65, 300], true),
                    ];
                    for (qi, &(lens, tombstoned)) in queries.iter().enumerate() {
                        let slices: Vec<TsSlice> = lens
                            .iter()
                            .map(|&n| {
                                let dists = ts_dists(shape, n, &mut st);
                                let ids: Vec<u32> = (0..n).map(|_| st.word()).collect();
                                let mut tomb = BTreeSet::new();
                                if tombstoned {
                                    // both sides of the first chunk
                                    // boundaries, and a few at random
                                    for slot in [0, 30, 31, 32, 33, 63, 64, 65, 96] {
                                        if slot < n {
                                            tomb.insert(ids[slot]);
                                        }
                                    }
                                    for _ in 0..n / 16 {
                                        tomb.insert(ids[st.below(n)]);
                                    }
                                }
                                TsSlice { dists, ids, tomb }
                            })
                            .collect();
                        let case = format!(
                            "k={k} {policy:?} {shape:?} resident={} query {qi}",
                            placement.is_resident("topk")
                        );
                        assert_ts_kernels_agree(&case, &ctx, k, policy, &slices);
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 3 * 2 * 3 * 6);
}

/// Inputs of the exact-search and seeding oracles: `n` points of `dim`
/// coordinates on a coarse grid, so many distances tie; every fifth point
/// repeats an earlier one, and with `specials` some coordinates are NaN or
/// ±∞.
fn grid_points(n: usize, dim: usize, specials: bool, st: &mut Stream) -> VecSet<f32> {
    let mut out = VecSet::with_capacity(dim, n);
    for i in 0..n {
        if i % 5 == 4 {
            let src = out.get(st.below(i)).to_vec();
            out.push(&src);
            continue;
        }
        let v: Vec<f32> = (0..dim)
            .map(|_| match st.below(if specials { 41 } else { 1 << 20 }) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => (st.below(7) as f32 - 3.0) * 0.5,
            })
            .collect();
        out.push(&v);
    }
    out
}

/// Ids and distance bits, with every NaN distance read as one NaN: Rust
/// leaves the sign and payload of a NaN result unspecified, and which of
/// two NaN operands a sum passes on follows the operand order the compiler
/// chose at that call site.
fn neighbor_bits(ns: &[Neighbor]) -> Vec<(u64, u32)> {
    let bits = |d: f32| if d.is_nan() { f32::NAN } else { d }.to_bits();
    ns.iter().map(|n| (n.id, bits(n.dist))).collect()
}

#[test]
fn exact_search_batch_matches_per_query_exact_search() {
    use ann_core::flat::{exact_search, exact_search_batch, QUERY_BLOCK, TILE_BYTES};
    // query counts around the block; corpora below k, inside one tile and
    // across a tile boundary (never a multiple of the tile); grid values,
    // duplicate rows, and NaN / ±∞ in rows and queries. The pool width
    // cycles through 1, 2 and 4 threads from case to case
    let mut st = Stream(0xE7AC7);
    let mut cases = 0;
    for dim in [3usize, 13] {
        let tile = TILE_BYTES / (4 * dim);
        for (n, ks) in [
            (7usize, &[1usize, 10][..]),
            (300, &[1, 10]),
            (tile + 5, &[10]),
        ] {
            for specials in [false, true] {
                let data = grid_points(n, dim, specials, &mut st);
                for nq in [1, QUERY_BLOCK - 1, QUERY_BLOCK + 1, 2 * QUERY_BLOCK + 3] {
                    let queries = grid_points(nq, dim, specials, &mut st);
                    for &k in ks {
                        let threads = [1, 2, 4][cases % 3];
                        let got: Vec<_> = rayon::with_num_threads(threads, || {
                            exact_search_batch(&queries, &data, k)
                        })
                        .iter()
                        .map(|ns| neighbor_bits(ns))
                        .collect();
                        let want: Vec<_> = (0..nq)
                            .map(|qi| neighbor_bits(&exact_search(queries.get(qi), &data, k)))
                            .collect();
                        assert_eq!(
                            got, want,
                            "dim {dim} n {n} specials {specials} queries {nq} k {k} \
                             threads {threads}"
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 5 * 2 * 4);
}

#[test]
fn heap_gate_is_push_acceptance_in_ascending_id_order() {
    // `admits_next` is the test `exact_search_batch` runs before `push`:
    // on every candidate of ascending-id scans over grid values (ties),
    // duplicate rows and NaN / ±∞, it must say exactly what `push` does
    let mut st = Stream(0x6A7E);
    for specials in [false, true] {
        let data = grid_points(600, 5, specials, &mut st);
        let queries = grid_points(6, 5, specials, &mut st);
        for k in [1usize, 10, 700] {
            for (qi, q) in queries.iter().enumerate() {
                let mut heap = BoundedMaxHeap::new(k);
                for (i, row) in data.iter().enumerate() {
                    let n = Neighbor::new(i as u64, ann_core::kernels::l2_sq_f32(q, row));
                    let gate = heap.admits_next(n.dist);
                    assert_eq!(
                        gate,
                        heap.push(n),
                        "specials {specials} k {k} query {qi} row {i}"
                    );
                }
            }
        }
    }
}

/// The per-point k-means++ seeding loop that `kmeanspp_init` replaced: one
/// `kernels::l2_sq_f32(point, seed)` per point and round, min-updated in
/// place.
fn kmeanspp_reference(data: &VecSet<f32>, k: usize, rng: &mut StdRng) -> VecSet<f32> {
    let n = data.len();
    let mut seeds = VecSet::with_capacity(data.dim(), k);
    seeds.push(data.get(rng.gen_range(0..n)));
    let mut d2: Vec<f32> = (0..n)
        .map(|i| ann_core::kernels::l2_sq_f32(data.get(i), seeds.get(0)))
        .collect();
    for _ in 1..k {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let choice = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut picked = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    picked = i;
                    break;
                }
            }
            picked
        };
        seeds.push(data.get(choice));
        let seed = seeds.get(seeds.len() - 1);
        for (i, d) in d2.iter_mut().enumerate() {
            let nd = ann_core::kernels::l2_sq_f32(data.get(i), seed);
            if nd < *d {
                *d = nd;
            }
        }
    }
    seeds
}

#[test]
fn kmeanspp_seeds_match_the_per_point_loop() {
    // dims below, at and above the 8 lanes (tails of 0-7 dims, 0-12 lane
    // chunks); more points than one parallel chunk, never a multiple of
    // the 16-point group; random, all-identical (the `total <= 0` draw)
    // and with one NaN coordinate
    let mut st = Stream(0x5EED5);
    for dim in [1usize, 2, 3, 7, 8, 9, 17, 19, 96] {
        let random = VecSet::from_flat(dim, (0..1500 * dim).map(|_| st.unit() * 3.0).collect());
        let same = VecSet::from_flat(dim, [0.25f32].repeat(300 * dim));
        let mut nan = random.clone();
        nan.get_mut(700)[dim / 2] = f32::NAN;
        for (name, data) in [("random", &random), ("identical", &same), ("nan", &nan)] {
            let k = 24;
            let want = kmeanspp_reference(data, k, &mut StdRng::seed_from_u64(dim as u64));
            for threads in [1, 2] {
                let got = rayon::with_num_threads(threads, || {
                    ann_core::kmeans::kmeanspp_init(data, k, &mut StdRng::seed_from_u64(dim as u64))
                });
                let bits =
                    |s: &VecSet<f32>| s.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "dim {dim} {name} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn ivf_pq_build_digest_is_pinned() {
    // dim 24, m 8: dsub 3, the benchmark's subvector width, where both the
    // seeding and the encoder run on their tail paths. The digest covers
    // every coarse centroid and codeword bit, list id and code, so any
    // change to seeding, Lloyd, assignment or encoding shows here. The
    // value was recorded with the per-point seeding loop
    // (`kmeanspp_reference` above)
    let (data, _) = workload(3000, 24, 91);
    let idx = IvfPqIndex::build(&data, &IvfPqParams::new(24).m(8).cb(64));
    let floats = idx
        .coarse
        .as_flat()
        .iter()
        .chain(idx.quant.codebooks_flat());
    let words = floats
        .map(|x| u64::from(x.to_bits()))
        .chain(idx.lists.iter().flat_map(|l| {
            std::iter::once(l.len() as u64)
                .chain(l.ids.iter().map(|&id| u64::from(id)))
                .chain(l.codes.iter().map(|&c| u64::from(c)))
        }));
    assert_eq!(
        ann_core::hash::hash_words(0xB17D, words),
        3848415315859050938
    );
}

#[test]
fn block_encode_matches_the_per_row_reference_bit_for_bit() {
    // `encode_batch_into` runs 16 rows per pass; block sizes around that
    // width leave partial blocks, whose idle lanes must not leak into a
    // code. dim = 3 * dsub - 1, so the last subspace is zero-padded
    let mut st = Stream(0xB10C);
    for dsub in [1usize, 2, 3, 7, 8, 9, 16, 17] {
        for cb in [2usize, 17, 256] {
            let (m, dim) = (3usize, 3 * dsub - 1);
            for family in 0..4 {
                let books = oracle_codebooks(family, m, cb, dsub, &mut st);
                let pq = ProductQuantizer::from_codebooks(dim, m, cb, books);
                let inputs = oracle_inputs(&pq, &mut st);
                let want: Vec<Vec<u16>> = inputs.iter().map(|v| encode_reference(&pq, v)).collect();
                for n in [1usize, 15, 16, 17, 33] {
                    let rows: Vec<f32> = inputs[..n].concat();
                    for threads in [1, 2] {
                        let mut codes = vec![0u16; n * m];
                        rayon::with_num_threads(threads, || {
                            pq.encode_batch_into(&rows, &mut codes)
                        });
                        for (i, code) in codes.chunks_exact(m).enumerate() {
                            assert_eq!(
                                code,
                                &want[i][..],
                                "dsub {dsub} cb {cb} family {family} rows {n} threads {threads} \
                                 row {i}: {:?}",
                                inputs[i]
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn build_codes_are_the_per_row_reference_at_any_thread_count() {
    // 4,200 points: the build encodes in 4,096-point pool items, 16 rows
    // per pass, so the second item (104 = 6 · 16 + 8 points) is partial
    // and ends on a partial pass
    let (data, _) = workload(4200, 12, 93);
    for threads in [1, 2] {
        let idx = rayon::with_num_threads(threads, || {
            IvfPqIndex::build(&data, &IvfPqParams::new(16).m(4).cb(32))
        });
        let mut residual = vec![0.0f32; 12];
        for (c, list) in idx.lists.iter().enumerate() {
            for (&id, code) in list.ids.iter().zip(list.codes.chunks_exact(4)) {
                let v = data.get(id as usize);
                for ((r, &x), &y) in residual.iter_mut().zip(v).zip(idx.coarse.get(c)) {
                    *r = x - y;
                }
                assert_eq!(
                    code,
                    &encode_reference(&idx.quant, &residual)[..],
                    "threads {threads} id {id}"
                );
            }
        }
    }
}
