//! Offline stand-in for the `rayon` crate.
//!
//! Provides the parallel-slice operations this workspace actually
//! uses — `slice.par_iter().map(f).collect()`,
//! `slice.par_chunks_mut(n).enumerate().for_each(f)`, and
//! `slice.par_chunks(n).enumerate().map(f).collect()` /
//! `.reduce_with(op)` — implemented with `std::thread::scope` fork/join
//! over contiguous shards instead of a work-stealing pool. Order is
//! preserved: `collect` returns results in input order, exactly like
//! rayon's indexed parallel iterators, and `reduce_with` combines results
//! in the **fixed binary-tree order** of [`tree_fold`] — pairs
//! (0,1),(2,3),…, then pairs of the pair-results — regardless of the
//! worker count, so floating-point reductions are bit-for-bit
//! reproducible at any thread setting.
//!
//! Worker count: the machine's available parallelism, overridable with
//! the `DESH_THREADS` environment variable (read once per process) or
//! programmatically via [`set_thread_override`] (which wins over the
//! env; benches use it to sweep worker counts in-process). The worker
//! count decides execution only — it never changes any numeric result.
//!
//! This is not a general-purpose rayon replacement: combinators are eager
//! and the API surface is only what the workspace needs.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Programmatic worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Parse a `DESH_THREADS`-style value: a positive integer, else `None`.
fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The `DESH_THREADS` environment override, read once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("DESH_THREADS").ok().and_then(|v| parse_threads(&v)))
}

/// Worker threads an unbounded workload would get: the programmatic
/// override if set, else `DESH_THREADS`, else the hardware parallelism.
/// (Mirrors rayon's `current_num_threads`.)
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Pin (`Some(n)`) or release (`None`) this process's worker count,
/// overriding both `DESH_THREADS` and the hardware count. Benches use it
/// to sweep 1/2/4 workers in one process. Thread count never changes
/// numerics, only wall-clock.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

thread_local! {
    /// Set on the threads this shim spawns for the duration of their work.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads for a workload: the configured parallelism,
/// capped so tiny inputs do not pay fork/join overhead for empty shards.
/// A parallel call made from inside a worker runs inline on that worker:
/// the outer call already occupies the pool, and a second layer of
/// threads per nested call only adds spawn cost.
fn threads_for(items: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    current_num_threads().min(items).max(1)
}

/// Run `f` as a worker: nested parallel calls inside it run inline.
fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    IN_WORKER.with(|w| w.set(true));
    f()
}

/// Deterministic binary-tree fold: combines `v` pairwise in a fixed
/// order — (0,1),(2,3),…, then pairs of the pair-results, with odd
/// leftovers carried up unchanged — independent of the worker count.
/// This is the reduction order the gradient tree-reduce in `desh-nn`
/// mirrors (`parallel::tree_reduce_indices`).
pub fn tree_fold<R>(mut v: Vec<R>, op: impl Fn(R, R) -> R) -> Option<R> {
    if v.is_empty() {
        return None;
    }
    while v.len() > 1 {
        let mut next = Vec::with_capacity(v.len().div_ceil(2));
        let mut it = v.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(op(a, b)),
                None => next.push(a),
            }
        }
        v = next;
    }
    v.into_iter().next()
}

/// Run `f` over owned items across worker threads, returning results in
/// input order. Shared backend of the ordered map combinators.
fn run_ordered<I, R, F>(items: Vec<I>, f: &F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads_for(n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    let shard = n.div_ceil(workers);
    let mut queues: Vec<Vec<I>> = Vec::with_capacity(workers);
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<I> = it.by_ref().take(shard).collect();
        if chunk.is_empty() {
            break;
        }
        queues.push(chunk);
    }
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(queues.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = queues
            .into_iter()
            .map(|q| s.spawn(move || as_worker(|| q.into_iter().map(f).collect::<Vec<R>>())))
            .collect();
        for h in handles {
            parts.push(h.join().expect("parallel map worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

/// Everything call sites import, mirroring `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{ParallelSlice, ParallelSliceMut};
}

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over the slice's elements.
    fn par_iter(&self) -> ParIter<'_, T>;

    /// Parallel iterator over non-overlapping `size`-element chunks (the
    /// last may be shorter).
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }

    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunks { slice: self, size }
    }
}

/// Borrowed parallel iterator; combinators are eager.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap { items: self.items, f }
    }
}

/// Result of [`ParIter::map`]; consumed by [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Run the map across worker threads and gather results in input order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
        C: FromParallel<R>,
    {
        let items: Vec<&'a T> = self.items.iter().collect();
        C::from_ordered(run_ordered(items, &|x: &'a T| (self.f)(x)))
    }
}

/// Shared chunk iterator; call [`ParChunks::enumerate`] to attach indices.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> ParChunksEnumerate<'a, T> {
        ParChunksEnumerate { slice: self.slice, size: self.size }
    }
}

/// Indexed shared chunk iterator.
pub struct ParChunksEnumerate<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParChunksEnumerate<'a, T> {
    /// Map each (index, chunk) pair through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        R: Send,
        F: Fn((usize, &'a [T])) -> R + Sync,
    {
        ParChunksMap { slice: self.slice, size: self.size, f }
    }
}

/// Result of [`ParChunksEnumerate::map`]; terminal operations are
/// [`ParChunksMap::collect`] and [`ParChunksMap::reduce_with`].
pub struct ParChunksMap<'a, T, F> {
    slice: &'a [T],
    size: usize,
    f: F,
}

impl<'a, T: Sync, F> ParChunksMap<'a, T, F> {
    fn items(&self) -> Vec<(usize, &'a [T])> {
        self.slice.chunks(self.size).enumerate().collect()
    }

    /// Run the map across worker threads; results in chunk order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn((usize, &'a [T])) -> R + Sync,
        C: FromParallel<R>,
    {
        let items = self.items();
        C::from_ordered(run_ordered(items, &self.f))
    }

    /// Map in parallel, then combine the ordered results with `op` in the
    /// fixed [`tree_fold`] order — deterministic at any worker count.
    /// `None` when the input slice is empty.
    pub fn reduce_with<R>(self, op: impl Fn(R, R) -> R) -> Option<R>
    where
        R: Send,
        F: Fn((usize, &'a [T])) -> R + Sync,
    {
        let items = self.items();
        tree_fold(run_ordered(items, &self.f), op)
    }
}

/// Collection targets for the ordered parallel maps.
pub trait FromParallel<R> {
    /// Build from results already in input order.
    fn from_ordered(v: Vec<R>) -> Self;
}

impl<R> FromParallel<R> for Vec<R> {
    fn from_ordered(v: Vec<R>) -> Self {
        v
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut { slice: self, size }
    }
}

/// Mutable chunk iterator; call [`ParChunksMut::enumerate`] to attach indices.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { slice: self.slice, size: self.size }
    }
}

/// Indexed mutable chunk iterator; terminal operation is `for_each`.
pub struct ParChunksMutEnumerate<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Apply `f` to every (index, chunk) pair across worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunks: Vec<(usize, &mut [T])> =
            self.slice.chunks_mut(self.size).enumerate().collect();
        let n = chunks.len();
        if n == 0 {
            return;
        }
        let workers = threads_for(n);
        if workers == 1 {
            for item in chunks {
                f(item);
            }
            return;
        }
        // Deal chunks into per-worker piles (round-robin keeps shard work
        // balanced when chunk cost varies with index).
        let mut piles: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, item) in chunks.into_iter().enumerate() {
            piles[i % workers].push(item);
        }
        let f = &f;
        std::thread::scope(|s| {
            for pile in piles {
                s.spawn(move || {
                    as_worker(|| {
                        for item in pile {
                            f(item);
                        }
                    })
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Mutex;

    /// Serialises tests that touch the process-global thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled.len(), xs.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2 * i as u64);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [41u8];
        let out: Vec<u8> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut data = vec![0u32; 1000];
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x += i as u32 + 1;
            }
        });
        // Every element got exactly its chunk's index + 1.
        for (j, &x) in data.iter().enumerate() {
            assert_eq!(x, (j / 7) as u32 + 1);
        }
    }

    #[test]
    fn nested_par_chunks_mut_runs_on_the_calling_worker() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        crate::set_thread_override(Some(2));
        let main = std::thread::current().id();
        // Per outer chunk: the worker's thread id and the thread ids its
        // nested call's chunks ran on.
        type Seen = (Option<std::thread::ThreadId>, Vec<Option<std::thread::ThreadId>>);
        let mut seen: Vec<Seen> = vec![(None, Vec::new()); 4];
        seen.par_chunks_mut(1).enumerate().for_each(|(_, slot)| {
            let mut inner = vec![None; 8];
            inner
                .par_chunks_mut(1)
                .enumerate()
                .for_each(|(_, c)| c[0] = Some(std::thread::current().id()));
            slot[0] = (Some(std::thread::current().id()), inner);
        });
        crate::set_thread_override(None);
        for (outer, inner) in &seen {
            let outer = outer.expect("outer chunk ran");
            assert_ne!(outer, main, "outer call did not spawn workers");
            assert!(inner.iter().all(|&t| t == Some(outer)), "nested call left its worker");
        }
    }

    #[test]
    fn par_chunks_map_collect_keeps_chunk_order() {
        let xs: Vec<u32> = (0..103).collect();
        let sums: Vec<(usize, u32)> = xs
            .par_chunks(10)
            .enumerate()
            .map(|(i, chunk)| (i, chunk.iter().sum::<u32>()))
            .collect();
        assert_eq!(sums.len(), 11);
        for (k, (i, s)) in sums.iter().enumerate() {
            assert_eq!(*i, k);
            let want: u32 = xs[k * 10..((k + 1) * 10).min(xs.len())].iter().sum();
            assert_eq!(*s, want);
        }
    }

    #[test]
    fn reduce_with_matches_sequential_sum() {
        let xs: Vec<u64> = (1..=1000).collect();
        let total = xs
            .par_chunks(37)
            .enumerate()
            .map(|(_, chunk)| chunk.iter().sum::<u64>())
            .reduce_with(|a, b| a + b);
        assert_eq!(total, Some(500_500));
        let empty: Vec<u64> = Vec::new();
        assert_eq!(
            empty
                .par_chunks(4)
                .enumerate()
                .map(|(_, c)| c.len())
                .reduce_with(|a, b| a + b),
            None
        );
    }

    #[test]
    fn tree_fold_order_is_fixed() {
        // Record the combination order symbolically: with 5 leaves the
        // fixed tree is ((01)(23))4 regardless of anything else.
        let leaves: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let folded = crate::tree_fold(leaves, |a, b| format!("({a}{b})"));
        assert_eq!(folded.as_deref(), Some("(((01)(23))4)"));
    }

    #[test]
    fn reduce_is_identical_across_worker_counts() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        // A deliberately non-associative float reduction: if the
        // combination order moved with the worker count, these would differ.
        let xs: Vec<f32> = (0..997).map(|i| (i as f32).sin() * 1e3).collect();
        let run = || {
            xs.par_chunks(13)
                .enumerate()
                .map(|(_, c)| c.iter().fold(0.0f32, |a, &b| (a + b) * 0.9999))
                .reduce_with(|a, b| (a + b) * 1.0001)
                .unwrap()
        };
        crate::set_thread_override(Some(1));
        let one = run();
        crate::set_thread_override(Some(4));
        let four = run();
        crate::set_thread_override(None);
        assert_eq!(one.to_bits(), four.to_bits());
    }

    #[test]
    fn thread_override_wins_and_releases() {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        crate::set_thread_override(Some(3));
        assert_eq!(crate::current_num_threads(), 3);
        crate::set_thread_override(None);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(crate::parse_threads("4"), Some(4));
        assert_eq!(crate::parse_threads(" 16 "), Some(16));
        assert_eq!(crate::parse_threads("0"), None);
        assert_eq!(crate::parse_threads("-2"), None);
        assert_eq!(crate::parse_threads("many"), None);
        assert_eq!(crate::parse_threads(""), None);
    }
}
