//! The [`Accumulate`] merge trait and the [`impl_accumulate!`] helper
//! that generates field-wise `absorb` implementations, replacing the
//! hand-written (and drift-prone) per-struct merge boilerplate the
//! stats structs used to carry.

/// A value that can fold another instance of itself into its totals.
///
/// The workspace stats structs (`SessionStats`, `ServiceStats`, solver
/// `SolverStats`, metric snapshots) all implement this; `absorb` is the
/// single merge entry point, whether a worker shard is folding into a
/// flow total or the service is folding a job snapshot into its lifetime
/// metrics.
pub trait Accumulate {
    /// Fold `other` into `self`. Additive fields sum, watermark fields
    /// take the max, and "most recent query" fields copy from `other`
    /// when `other` actually ran queries.
    fn absorb(&mut self, other: &Self);
}

/// Generate an [`Accumulate`] impl from a field classification instead
/// of hand-written per-field merge code:
///
/// ```
/// use genfv_obs::{impl_accumulate, Accumulate};
///
/// #[derive(Default)]
/// struct Stats {
///     solves: u64,
///     conflicts: u64,
///     max_frame: usize,
///     saw_unknown: bool,
///     last_core: usize,
/// }
///
/// impl_accumulate!(Stats {
///     add: [solves, conflicts],
///     max: [max_frame],
///     or: [saw_unknown],
///     last_if solves: [last_core],
/// });
///
/// let mut a = Stats { solves: 1, conflicts: 10, ..Default::default() };
/// let b = Stats { solves: 2, conflicts: 5, max_frame: 3, last_core: 7, ..Default::default() };
/// a.absorb(&b);
/// assert_eq!((a.solves, a.conflicts, a.max_frame, a.last_core), (3, 15, 3, 7));
/// ```
///
/// Field classes (each optional, in this order):
/// * `add` — summed (`+=`; works for integers and `Duration`s),
/// * `max` — watermarks (`self = max(self, other)`),
/// * `or` — sticky booleans (`|=`),
/// * `merge` — nested fields that themselves implement [`Accumulate`],
/// * `last_if <guard>` — "most recent" fields copied from `other` only
///   when `other.<guard>` is nonzero (so merging an idle shard never
///   clobbers real last-query data).
#[macro_export]
macro_rules! impl_accumulate {
    ($ty:ty {
        // Section-separator commas are optional: rustfmt strips the
        // trailing comma from single-line invocations.
        $(add: [$($a:ident),* $(,)?] $(,)?)?
        $(max: [$($m:ident),* $(,)?] $(,)?)?
        $(or: [$($o:ident),* $(,)?] $(,)?)?
        $(merge: [$($n:ident),* $(,)?] $(,)?)?
        $(last_if $cond:ident: [$($l:ident),* $(,)?] $(,)?)?
    }) => {
        impl $crate::Accumulate for $ty {
            fn absorb(&mut self, other: &Self) {
                $($(self.$a += other.$a;)*)?
                $($(if other.$m > self.$m { self.$m = other.$m; })*)?
                $($(self.$o |= other.$o;)*)?
                $($($crate::Accumulate::absorb(&mut self.$n, &other.$n);)*)?
                $(if other.$cond > 0 { $(self.$l = other.$l;)* })?
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Accumulate;

    #[derive(Default, Debug, PartialEq)]
    struct Inner {
        hits: u64,
    }
    crate::impl_accumulate!(Inner { add: [hits] });

    #[derive(Default, Debug, PartialEq)]
    struct Outer {
        runs: u64,
        peak: usize,
        failed: bool,
        inner: Inner,
        last_len: usize,
    }
    crate::impl_accumulate!(Outer {
        add: [runs],
        max: [peak],
        or: [failed],
        merge: [inner],
        last_if runs: [last_len],
    });

    #[test]
    fn all_field_classes_merge() {
        let mut a = Outer { runs: 1, peak: 5, last_len: 9, ..Default::default() };
        a.absorb(&Outer { runs: 2, peak: 3, failed: true, inner: Inner { hits: 4 }, last_len: 7 });
        assert_eq!(
            a,
            Outer { runs: 3, peak: 5, failed: true, inner: Inner { hits: 4 }, last_len: 7 }
        );
        // An idle other (guard == 0) must not clobber last-query data.
        a.absorb(&Outer::default());
        assert_eq!(a.last_len, 7);
    }
}
