//! Chunked parallel sweeps over universe-sized buffers.
//!
//! The Θ(|X|) inner loops (MW update, certificate sweep, normalization) and
//! the lazy update-log backend's universe-axis replay are embarrassingly
//! parallel over blocks. The build environment has no registry access, so
//! instead of rayon this module provides the primitives those loops need —
//! a chunked `for_each` over a mutable buffer and chunked folds — on top of
//! [`std::thread::scope`].
//!
//! Every call opens a fresh scope, so a sweep only gains when its work
//! dwarfs a thread handoff. The sampled sketch's pool sweeps do not: a
//! 2048-slot sweep takes about 1.4 µs on one core, against 11–13 µs to hand
//! one job to a parked worker and wait for it. They run serially and never
//! come through here.
//!
//! # Deterministic reductions
//!
//! Chunk boundaries come from a [`ChunkPlan`] and depend **only** on the
//! buffer length and the plan's grain — never on the thread count. Workers
//! are assigned whole chunks (round-robin), per-chunk partials are stored by
//! chunk index, and reductions combine them **strictly in chunk order**. The
//! sequential fallback iterates the *same* chunks in the *same* order, so a
//! floating-point fold produces bit-for-bit identical results across thread
//! counts 1, 2, 8, … and across the `parallel` feature being on or off.
//!
//! With the `parallel` feature disabled the helpers degrade to the
//! sequential chunk loop; with it enabled the worker count resolves as
//! [`with_threads`] override → `PMW_THREADS` env var → available
//! parallelism.

/// Default grain: minimum number of elements per chunk before the helpers
/// go parallel; below this a single core finishes faster than threads can
/// be spawned.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Cached core count: `available_parallelism` re-reads cgroup limits from
/// the filesystem on Linux (~10µs per call), which would dwarf a small
/// sweep if queried per call.
#[cfg(feature = "parallel")]
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// `PMW_THREADS` env override, parsed once. Invalid or zero values are
/// ignored.
#[cfg(feature = "parallel")]
fn env_threads() -> Option<usize> {
    static ENV: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PMW_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

#[cfg(feature = "parallel")]
thread_local! {
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Worker count the sweep helpers will use on this thread: the innermost
/// [`with_threads`] override if active, else the `PMW_THREADS` environment
/// variable, else the machine's available parallelism. Always `1` when the
/// `parallel` feature is off.
///
/// Changing this value never changes *results* (chunk boundaries and
/// reduction order are fixed by the [`ChunkPlan`]), only how the chunks are
/// distributed over OS threads.
pub fn threads() -> usize {
    #[cfg(feature = "parallel")]
    {
        if let Some(n) = THREAD_OVERRIDE.with(std::cell::Cell::get) {
            return n.max(1);
        }
        if let Some(n) = env_threads() {
            return n;
        }
        cores()
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// Run `f` with the sweep worker count pinned to `n` on the current thread
/// (restored on exit, including on panic). This is the scoped-thread
/// equivalent of `RAYON_NUM_THREADS`: benches use it to record a thread
/// axis in-process, and tests use it to prove bit-for-bit equality across
/// thread counts.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "parallel")]
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREAD_OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
        let _restore = Restore(prev);
        f()
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = n;
        f()
    }
}

/// Fixed chunk layout for a buffer of a given length: chunk boundaries are
/// a pure function of `(len, grain)`, independent of thread count, so every
/// sweep that shares a plan shares its reduction order.
///
/// Every helper asserts, in release builds too, that its plan covers its
/// buffer exactly: a shorter plan would otherwise sweep only a prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    len: usize,
    grain: usize,
}

impl ChunkPlan {
    /// Plan for `len` elements at the default grain ([`PAR_THRESHOLD`]).
    pub fn new(len: usize) -> Self {
        Self::with_grain(len, PAR_THRESHOLD)
    }

    /// Plan for `len` elements with an explicit grain (clamped to ≥ 1).
    /// Smaller grains expose more parallelism for heavy per-element work
    /// (e.g. O(t·d) log-weight replay) at the cost of more spawn/bookkeeping
    /// overhead.
    pub fn with_grain(len: usize, grain: usize) -> Self {
        Self {
            len,
            grain: grain.max(1),
        }
    }

    /// Number of elements this plan covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the plan covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per chunk (last chunk may be ragged).
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// Number of chunks; at least 1 (an empty buffer is one empty chunk,
    /// matching the sequential `f(0, data)` contract).
    pub fn n_chunks(&self) -> usize {
        self.len.div_ceil(self.grain).max(1)
    }

    /// Half-open element range `[lo, hi)` of chunk `i`.
    pub fn bounds(&self, i: usize) -> (usize, usize) {
        let lo = i * self.grain;
        (lo, self.len.min(lo + self.grain))
    }
}

/// Split `data` into the plan's chunks as `(offset, chunk)` pairs, in chunk
/// order. Used by the mutable sweeps to hand whole chunks to workers.
fn split_plan_mut<T>(plan: ChunkPlan, data: &mut [T]) -> Vec<(usize, &mut [T])> {
    assert_eq!(plan.len(), data.len(), "plan/buffer length mismatch");
    let n = plan.n_chunks();
    let mut parts = Vec::with_capacity(n);
    let mut rest = data;
    for i in 0..n {
        let (lo, hi) = plan.bounds(i);
        let (head, tail) = rest.split_at_mut(hi - lo);
        parts.push((lo, head));
        rest = tail;
    }
    parts
}

/// Apply `f(offset, chunk)` over the plan's chunks of `data`; `offset` is
/// the index of the chunk's first element, letting `f` index into parallel
/// read-only buffers.
///
/// Runs on scoped threads when the `parallel` feature is on, more than one
/// worker is available, and the plan has more than one chunk; otherwise
/// processes the chunks sequentially in chunk order.
pub fn plan_for_each_mut<T, F>(plan: ChunkPlan, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(plan.len(), data.len(), "plan/buffer length mismatch");
    #[cfg(feature = "parallel")]
    {
        let workers = threads().min(plan.n_chunks());
        if workers > 1 {
            let parts = split_plan_mut(plan, data);
            let mut buckets: Vec<Vec<(usize, &mut [T])>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, part) in parts.into_iter().enumerate() {
                buckets[i % workers].push(part);
            }
            std::thread::scope(|scope| {
                for bucket in buckets {
                    let f = &f;
                    scope.spawn(move || {
                        for (offset, chunk) in bucket {
                            f(offset, chunk);
                        }
                    });
                }
            });
            return;
        }
    }
    for (offset, chunk) in split_plan_mut(plan, data) {
        f(offset, chunk);
    }
}

/// Fold the plan's chunks of `data` with `fold(offset, chunk) -> A`, then
/// combine the per-chunk accumulators **strictly in chunk order** with
/// `combine`.
///
/// Chunk boundaries and combination order are fixed by the plan, so the
/// result is bit-for-bit identical across thread counts and across the
/// `parallel` feature.
pub fn plan_fold<T, A, F, C>(plan: ChunkPlan, data: &[T], fold: F, combine: C) -> A
where
    T: Sync,
    A: Send,
    F: Fn(usize, &[T]) -> A + Sync,
    C: Fn(A, A) -> A,
{
    assert_eq!(plan.len(), data.len(), "plan/buffer length mismatch");
    let n = plan.n_chunks();
    #[cfg(feature = "parallel")]
    {
        let workers = threads().min(n);
        if workers > 1 {
            let mut slots: Vec<Option<A>> = (0..n).map(|_| None).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let fold = &fold;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            let mut i = w;
                            while i < n {
                                let (lo, hi) = plan.bounds(i);
                                out.push((i, fold(lo, &data[lo..hi])));
                                i += workers;
                            }
                            out
                        })
                    })
                    .collect();
                for handle in handles {
                    for (i, a) in handle.join().expect("sweep worker panicked") {
                        slots[i] = Some(a);
                    }
                }
            });
            let mut iter = slots.into_iter().map(|s| s.expect("every chunk folded"));
            let first = iter.next().expect("at least one chunk");
            return iter.fold(first, combine);
        }
    }
    let mut acc: Option<A> = None;
    for i in 0..n {
        let (lo, hi) = plan.bounds(i);
        let a = fold(lo, &data[lo..hi]);
        acc = Some(match acc {
            None => a,
            Some(prev) => combine(prev, a),
        });
    }
    acc.expect("at least one chunk")
}

/// Like [`plan_fold`], but over mutable chunks: each chunk is written and
/// also produces an accumulator `A`, combined **strictly in chunk order**.
/// This is the shape of the fused exp-and-sum normalization pass.
pub fn plan_fold_mut<T, A, F, C>(plan: ChunkPlan, data: &mut [T], fold: F, combine: C) -> A
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T]) -> A + Sync,
    C: Fn(A, A) -> A,
{
    assert_eq!(plan.len(), data.len(), "plan/buffer length mismatch");
    #[cfg(feature = "parallel")]
    {
        let n = plan.n_chunks();
        let workers = threads().min(n);
        if workers > 1 {
            let parts = split_plan_mut(plan, data);
            let mut buckets: Vec<Vec<(usize, usize, &mut [T])>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, (offset, chunk)) in parts.into_iter().enumerate() {
                buckets[i % workers].push((i, offset, chunk));
            }
            let mut slots: Vec<Option<A>> = (0..n).map(|_| None).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|bucket| {
                        let fold = &fold;
                        scope.spawn(move || {
                            bucket
                                .into_iter()
                                .map(|(i, offset, chunk)| (i, fold(offset, chunk)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    for (i, a) in handle.join().expect("sweep worker panicked") {
                        slots[i] = Some(a);
                    }
                }
            });
            let mut iter = slots.into_iter().map(|s| s.expect("every chunk folded"));
            let first = iter.next().expect("at least one chunk");
            return iter.fold(first, combine);
        }
    }
    let mut acc: Option<A> = None;
    for (offset, chunk) in split_plan_mut(plan, data) {
        let a = fold(offset, chunk);
        acc = Some(match acc {
            None => a,
            Some(prev) => combine(prev, a),
        });
    }
    acc.expect("at least one chunk")
}

/// [`plan_for_each_mut`] with a default plan for `data.len()`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    plan_for_each_mut(ChunkPlan::new(data.len()), data, f);
}

/// [`plan_fold`] with a default plan for `data.len()`.
pub fn fold_chunks<T, A, F, C>(data: &[T], fold: F, combine: C) -> A
where
    T: Sync,
    A: Send,
    F: Fn(usize, &[T]) -> A + Sync,
    C: Fn(A, A) -> A,
{
    plan_fold(ChunkPlan::new(data.len()), data, fold, combine)
}

/// [`plan_fold_mut`] with a default plan for `data.len()`.
pub fn fold_chunks_mut<T, A, F, C>(data: &mut [T], fold: F, combine: C) -> A
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T]) -> A + Sync,
    C: Fn(A, A) -> A,
{
    plan_fold_mut(ChunkPlan::new(data.len()), data, fold, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_bounds_cover_len_exactly() {
        for (len, grain) in [
            (0usize, 1usize),
            (0, 64),
            (1, 64),
            (63, 64),
            (64, 64),
            (65, 64),
            (1000, 64),
            (PAR_THRESHOLD + 3, PAR_THRESHOLD),
        ] {
            let plan = ChunkPlan::with_grain(len, grain);
            let mut cursor = 0;
            for i in 0..plan.n_chunks() {
                let (lo, hi) = plan.bounds(i);
                assert_eq!(lo, cursor, "len {len} grain {grain} chunk {i}");
                assert!(hi >= lo && hi <= len);
                cursor = hi;
            }
            assert_eq!(cursor, len, "chunks must cover the buffer");
            assert!(plan.n_chunks() >= 1);
        }
    }

    #[test]
    fn plan_is_independent_of_thread_count() {
        let plan = ChunkPlan::with_grain(1000, 64);
        let reference = (0..plan.n_chunks())
            .map(|i| plan.bounds(i))
            .collect::<Vec<_>>();
        for t in [1usize, 2, 8] {
            let got = with_threads(t, || {
                (0..plan.n_chunks())
                    .map(|i| plan.bounds(i))
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, reference, "threads {t}");
        }
    }

    // A plan shorter than its buffer must panic in release builds too,
    // instead of silently sweeping only a prefix.
    #[test]
    #[should_panic(expected = "plan/buffer length mismatch")]
    fn short_plan_panics_in_plan_for_each_mut() {
        plan_for_each_mut(ChunkPlan::with_grain(3, 2), &mut [0.0; 4], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "plan/buffer length mismatch")]
    fn short_plan_panics_in_plan_fold() {
        plan_fold(
            ChunkPlan::with_grain(3, 2),
            &[0.0; 4],
            |_, c| c.len(),
            |a, b| a + b,
        );
    }

    #[test]
    #[should_panic(expected = "plan/buffer length mismatch")]
    fn short_plan_panics_in_plan_fold_mut() {
        plan_fold_mut(
            ChunkPlan::with_grain(3, 2),
            &mut [0.0; 4],
            |_, c| c.len(),
            |a, b| a + b,
        );
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let base = threads();
        let inner = with_threads(3, || {
            let nested = with_threads(7, threads);
            (threads(), nested)
        });
        if cfg!(feature = "parallel") {
            assert_eq!(inner, (3, 7));
        } else {
            assert_eq!(inner, (1, 1));
        }
        assert_eq!(threads(), base, "override must be restored");
    }

    #[test]
    fn for_each_covers_every_element_exactly_once() {
        for len in [0usize, 1, 7, PAR_THRESHOLD - 1, PAR_THRESHOLD + 3, 1 << 16] {
            let mut data = vec![0u32; len];
            for_each_chunk_mut(&mut data, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (offset + i) as u32;
                }
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u32),
                "len {len}"
            );
        }
    }

    #[test]
    fn fold_matches_sequential_sum() {
        for len in [1usize, 100, PAR_THRESHOLD + 17, 1 << 16] {
            let data: Vec<f64> = (0..len).map(|i| i as f64).collect();
            let total = fold_chunks(&data, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
            let expect = (len * (len - 1)) as f64 / 2.0;
            assert!((total - expect).abs() < 1e-6 * expect.max(1.0), "len {len}");
        }
    }

    #[test]
    fn fold_mut_writes_and_accumulates() {
        for len in [3usize, PAR_THRESHOLD + 9, 1 << 16] {
            let mut data = vec![1.0f64; len];
            let total = fold_chunks_mut(
                &mut data,
                |_, chunk| {
                    let mut s = 0.0;
                    for v in chunk.iter_mut() {
                        *v *= 2.0;
                        s += *v;
                    }
                    s
                },
                |a, b| a + b,
            );
            assert_eq!(total, 2.0 * len as f64, "len {len}");
            assert!(data.iter().all(|&v| v == 2.0));
        }
    }

    #[test]
    fn fold_offsets_are_consistent() {
        let data = vec![1u8; (1 << 15) + 5];
        let count = fold_chunks(
            &data,
            |offset, chunk| {
                // Each chunk sees its own offset; return (min_index, len).
                (offset, chunk.len())
            },
            |a, b| {
                assert_eq!(a.0 + a.1, b.0, "chunks must be adjacent and ordered");
                (a.0, a.1 + b.1)
            },
        );
        assert_eq!(count.1, data.len());
    }

    /// A sum whose value depends on association order: pseudorandom
    /// magnitudes spanning many decades, so any reordering of the fold
    /// shifts the low bits. Bit-equality across thread counts therefore
    /// proves the reduction order is fixed.
    fn adversarial_data(len: usize) -> Vec<f64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64;
                let exp = ((state % 37) as i32) - 18;
                mantissa * 2f64.powi(exp)
            })
            .collect()
    }

    #[test]
    fn plan_fold_bits_identical_across_thread_counts() {
        // Ragged tails on purpose: 1000 % 64 != 0, 193 % 64 != 0.
        for (len, grain) in [(1000usize, 64usize), (193, 64), (4096, 256), (5, 2)] {
            let data = adversarial_data(len);
            let plan = ChunkPlan::with_grain(len, grain);
            let serial = with_threads(1, || {
                plan_fold(plan, &data, |_, c| c.iter().sum::<f64>(), |a, b| a + b)
            });
            for t in [2usize, 8] {
                let par = with_threads(t, || {
                    plan_fold(plan, &data, |_, c| c.iter().sum::<f64>(), |a, b| a + b)
                });
                assert_eq!(
                    par.to_bits(),
                    serial.to_bits(),
                    "len {len} grain {grain} threads {t}"
                );
            }
        }
    }

    #[test]
    fn plan_fold_mut_bits_identical_across_thread_counts() {
        for (len, grain) in [(1000usize, 64usize), (193, 64), (4096, 256)] {
            let base = adversarial_data(len);
            let run = |t: usize| {
                let mut data = base.clone();
                let plan = ChunkPlan::with_grain(len, grain);
                let total = with_threads(t, || {
                    plan_fold_mut(
                        plan,
                        &mut data,
                        |_, chunk| {
                            let mut s = 0.0;
                            for v in chunk.iter_mut() {
                                *v = v.exp();
                                s += *v;
                            }
                            s
                        },
                        |a, b| a + b,
                    )
                });
                (total, data)
            };
            let (serial_total, serial_data) = run(1);
            for t in [2usize, 8] {
                let (par_total, par_data) = run(t);
                assert_eq!(par_total.to_bits(), serial_total.to_bits(), "threads {t}");
                assert!(
                    par_data
                        .iter()
                        .zip(&serial_data)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "threads {t}"
                );
            }
        }
    }

    #[test]
    fn plan_for_each_bits_identical_across_thread_counts() {
        for (len, grain) in [(1000usize, 64usize), (193, 64)] {
            let base = adversarial_data(len);
            let run = |t: usize| {
                let mut data = base.clone();
                let plan = ChunkPlan::with_grain(len, grain);
                with_threads(t, || {
                    plan_for_each_mut(plan, &mut data, |offset, chunk| {
                        for (i, v) in chunk.iter_mut().enumerate() {
                            *v = (*v * (offset + i + 1) as f64).sin();
                        }
                    });
                });
                data
            };
            let serial = run(1);
            for t in [2usize, 8] {
                let par = run(t);
                assert!(
                    par.iter()
                        .zip(&serial)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "len {len} threads {t}"
                );
            }
        }
    }
}
