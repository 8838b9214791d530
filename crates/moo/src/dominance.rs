//! Pareto-dominance relations for minimization problems.
//!
//! Following the paper's definition (§II): a point `a` Pareto-dominates `b` when
//! `a_i <= b_i` for all objectives `i` and `a_j < b_j` for at least one `j`.

/// Outcome of comparing two objective vectors under Pareto dominance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dominance {
    /// The first vector dominates the second.
    Dominates,
    /// The second vector dominates the first.
    DominatedBy,
    /// Neither vector dominates the other (they are incomparable or equal).
    Indifferent,
}

/// Returns `true` if `a` Pareto-dominates `b` (minimization).
///
/// # Panics
///
/// Panics if the vectors have different lengths or are empty.
///
/// # Examples
///
/// ```
/// assert!(moo::dominates(&[1.0, 2.0], &[2.0, 3.0]));
/// assert!(!moo::dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal points do not dominate
/// assert!(!moo::dominates(&[1.0, 4.0], &[2.0, 3.0])); // trade-off: incomparable
/// ```
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert!(!a.is_empty(), "objective vectors must be non-empty");
    assert_eq!(a.len(), b.len(), "objective vectors must have equal length");
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Compares two objective vectors and returns their [`Dominance`] relation.
///
/// # Panics
///
/// Panics if the vectors have different lengths or are empty.
pub fn compare(a: &[f64], b: &[f64]) -> Dominance {
    if dominates(a, b) {
        Dominance::Dominates
    } else if dominates(b, a) {
        Dominance::DominatedBy
    } else {
        Dominance::Indifferent
    }
}

/// Returns the indices of the non-dominated points in `points`.
///
/// Duplicated points are all retained (none of them dominates the others). The result is
/// sorted in ascending index order.
///
/// # Panics
///
/// Panics if the points do not all share the same dimension.
///
/// # Examples
///
/// ```
/// let pts = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![3.0, 3.0]];
/// assert_eq!(moo::non_dominated_indices(&pts), vec![0, 1]);
/// ```
pub fn non_dominated_indices(points: &[Vec<f64>]) -> Vec<usize> {
    let mut result = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i != j && dominates(q, p) {
                continue 'outer;
            }
        }
        result.push(i);
    }
    result
}

/// Filters `points` down to its non-dominated subset, preserving order.
pub fn non_dominated(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    non_dominated_indices(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

/// Fast non-dominated sorting (Deb et al., NSGA-II): partitions `points` into fronts.
///
/// Front 0 contains the non-dominated points, front 1 the points only dominated by front 0,
/// and so on. Returns the front index of every point.
///
/// # Panics
///
/// Panics if the points do not all share the same dimension.
pub fn fast_non_dominated_sort(points: &[Vec<f64>]) -> Vec<usize> {
    let n = points.len();
    let mut domination_count = vec![0usize; n];
    let mut dominated_sets: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut rank = vec![0usize; n];
    let mut current_front: Vec<usize> = Vec::new();

    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if dominates(&points[i], &points[j]) {
                dominated_sets[i].push(j);
            } else if dominates(&points[j], &points[i]) {
                domination_count[i] += 1;
            }
        }
        if domination_count[i] == 0 {
            rank[i] = 0;
            current_front.push(i);
        }
    }

    let mut front_idx = 0;
    while !current_front.is_empty() {
        let mut next_front = Vec::new();
        for &i in &current_front {
            for &j in &dominated_sets[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    rank[j] = front_idx + 1;
                    next_front.push(j);
                }
            }
        }
        front_idx += 1;
        current_front = next_front;
    }
    rank
}

/// Crowding distance of every point **within a single front** (Deb et al.).
///
/// Boundary points of every objective get infinite distance; interior points get the sum of
/// normalized neighbour gaps. Larger values indicate less crowded points.
///
/// # Panics
///
/// Panics if the points do not all share the same dimension.
pub fn crowding_distance(points: &[Vec<f64>]) -> Vec<f64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let k = points[0].len();
    let mut distance = vec![0.0; n];
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    // `obj` indexes a column across every point; an iterator over `points` cannot express
    // that access pattern.
    #[allow(clippy::needless_range_loop)]
    for obj in 0..k {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            points[a][obj]
                .partial_cmp(&points[b][obj])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let min_v = points[order[0]][obj];
        let max_v = points[order[n - 1]][obj];
        distance[order[0]] = f64::INFINITY;
        distance[order[n - 1]] = f64::INFINITY;
        let span = max_v - min_v;
        if span <= f64::EPSILON {
            continue;
        }
        for w in 1..(n - 1) {
            let prev = points[order[w - 1]][obj];
            let next = points[order[w + 1]][obj];
            distance[order[w]] += (next - prev) / span;
        }
    }
    distance
}

/// Returns `true` if the `a`-th row of the flat objective block dominates the `b`-th.
///
/// Identical relation to [`dominates`], expressed over a row-major `count × k` block with
/// the length assertions hoisted out of the pairwise loop (the caller validates the block
/// shape once).
#[inline]
fn dominates_rows(objectives: &[f64], k: usize, a: usize, b: usize) -> bool {
    let a = &objectives[a * k..(a + 1) * k];
    let b = &objectives[b * k..(b + 1) * k];
    let mut strictly_better = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Compares two objective rows in both directions with a single pass: returns
/// `(a dominates b, b dominates a)`.
///
/// One pass replaces the seed's two [`dominates`] calls per point pair — the relation is
/// identical, the work is halved.
#[inline]
fn compare_rows(a: &[f64], b: &[f64]) -> (bool, bool) {
    let mut a_less = false;
    let mut b_less = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            a_less = true;
        } else if y < x {
            b_less = true;
        }
    }
    (a_less && !b_less, b_less && !a_less)
}

/// Reusable buffers for [`fast_non_dominated_sort_flat`] and [`per_front_crowding_flat`].
///
/// All members retain their capacity across calls, so a warm scratch performs both passes
/// with zero heap allocation — the property the NSGA-II engine's per-generation loop is
/// built on.
#[derive(Debug, Clone, Default)]
pub struct DominanceScratch {
    /// How many points dominate point `i` (not yet assigned to a front).
    domination_count: Vec<usize>,
    /// For each point, the points it dominates. Inner vectors are cleared, never dropped.
    dominated: Vec<Vec<usize>>,
    /// Front currently being expanded.
    current_front: Vec<usize>,
    /// Front discovered while expanding `current_front`.
    next_front: Vec<usize>,
    /// Member indices of one front (crowding pass).
    members: Vec<usize>,
    /// Member indices sorted by one objective column (crowding pass).
    order: Vec<usize>,
    /// Merge buffer of the stable index sort.
    merge: Vec<usize>,
    /// Per front of the two-objective sweep: the smallest second objective among its
    /// members so far, and the first objective of the member that holds it.
    front_minima: Vec<(f64, f64)>,
}

/// [`fast_non_dominated_sort`] over a row-major flat objective block.
///
/// Writes the front index of every point into `ranks` (resized to `count`). Produces
/// exactly the ranks of the `Vec<Vec<f64>>` version; with a warm `scratch` it allocates
/// nothing. Two NaN-free objectives (PaRMIS's trade-off) take a lexicographic sort and one
/// sweep over the fronts instead of the pairwise pass.
///
/// # Panics
///
/// Panics if `objectives.len() != count * k` or `k == 0` (for `count > 0`).
pub fn fast_non_dominated_sort_flat(
    objectives: &[f64],
    count: usize,
    k: usize,
    ranks: &mut Vec<usize>,
    scratch: &mut DominanceScratch,
) {
    assert_eq!(objectives.len(), count * k, "flat objective block shape");
    assert!(k > 0 || count == 0, "objective vectors must be non-empty");
    crate::stats::record_flat_sort();
    crate::stats::record_dominance_comparisons((count * count.saturating_sub(1) / 2) as u64);

    ranks.clear();
    ranks.resize(count, 0);
    if k == 2 && objectives.iter().all(|v| !v.is_nan()) {
        two_objective_sweep(objectives, count, ranks, scratch);
        return;
    }
    scratch.domination_count.clear();
    scratch.domination_count.resize(count, 0);
    if scratch.dominated.len() < count {
        scratch.dominated.resize_with(count, Vec::new);
    }
    for set in scratch.dominated.iter_mut().take(count) {
        set.clear();
    }
    scratch.current_front.clear();

    // Every unordered pair once, both directions per pass. The dominated-set *order*
    // differs from the seed's all-`j` sweep, but the peeling below assigns each point the
    // same front index regardless of the order its dominators release it.
    for i in 0..count {
        let row_i = &objectives[i * k..(i + 1) * k];
        for j in (i + 1)..count {
            let row_j = &objectives[j * k..(j + 1) * k];
            let (i_dominates, j_dominates) = compare_rows(row_i, row_j);
            if i_dominates {
                scratch.dominated[i].push(j);
                scratch.domination_count[j] += 1;
            } else if j_dominates {
                scratch.dominated[j].push(i);
                scratch.domination_count[i] += 1;
            }
        }
    }
    for (i, rank) in ranks.iter_mut().enumerate() {
        if scratch.domination_count[i] == 0 {
            *rank = 0;
            scratch.current_front.push(i);
        }
    }

    let mut front_idx = 0;
    while !scratch.current_front.is_empty() {
        scratch.next_front.clear();
        for idx in 0..scratch.current_front.len() {
            let i = scratch.current_front[idx];
            for idx_j in 0..scratch.dominated[i].len() {
                let j = scratch.dominated[i][idx_j];
                scratch.domination_count[j] -= 1;
                if scratch.domination_count[j] == 0 {
                    ranks[j] = front_idx + 1;
                    scratch.next_front.push(j);
                }
            }
        }
        front_idx += 1;
        std::mem::swap(&mut scratch.current_front, &mut scratch.next_front);
    }
}

/// The ranks of [`fast_non_dominated_sort_flat`] for two NaN-free objectives, in
/// `O(n log n + n·fronts)` instead of `O(n²)`.
///
/// The points are visited in lexicographic order of `(f₀, f₁)`, so every dominator of a
/// point comes before it, and each takes the first front none of whose members so far
/// dominates it. That is its rank: a point of rank `r` has a dominator in every front below
/// `r` (the links of its longest dominance chain) and none in front `r` or above. A member
/// `q` visited before `p` has `q.f₀ ≤ p.f₀`, so it dominates `p` exactly when
/// `q.f₁ ≤ p.f₁` and the two differ; checking the front's member with the smallest `f₁` is
/// enough, because members of one front that share `f₁` also share `f₀`.
fn two_objective_sweep(
    objectives: &[f64],
    count: usize,
    ranks: &mut [usize],
    scratch: &mut DominanceScratch,
) {
    let point = |i: usize| (objectives[2 * i], objectives[2 * i + 1]);
    scratch.order.clear();
    scratch.order.extend(0..count);
    stable_sort_indices(&mut scratch.order, &mut scratch.merge, |a, b| {
        let (a, b) = (point(a), point(b));
        a.0.partial_cmp(&b.0)
            .expect("NaN-free objectives")
            .then(a.1.partial_cmp(&b.1).expect("NaN-free objectives"))
    });
    scratch.front_minima.clear();
    for &p in &scratch.order {
        let (p0, p1) = point(p);
        let dominated_by = |&(min1, at0): &(f64, f64)| min1 < p1 || (min1 == p1 && at0 < p0);
        let front = scratch
            .front_minima
            .iter()
            .position(|minimum| !dominated_by(minimum))
            .unwrap_or(scratch.front_minima.len());
        match scratch.front_minima.get_mut(front) {
            Some(minimum) if p1 < minimum.0 => *minimum = (p1, p0),
            Some(_) => {}
            None => scratch.front_minima.push((p1, p0)),
        }
        ranks[p] = front;
    }
}

/// Per-front crowding distance over a row-major flat objective block.
///
/// `ranks` must come from [`fast_non_dominated_sort_flat`] on the same block. Writes the
/// crowding distance of every point into `crowding` (resized to `count`), bit-identical to
/// `crowding_distance` applied front by front: boundary points are *assigned*
/// `f64::INFINITY`, interior points *accumulate* normalized neighbour gaps in objective
/// order, and fronts of one or two members are entirely infinite. With a warm `scratch` it
/// allocates nothing.
pub fn per_front_crowding_flat(
    objectives: &[f64],
    count: usize,
    k: usize,
    ranks: &[usize],
    crowding: &mut Vec<f64>,
    scratch: &mut DominanceScratch,
) {
    assert_eq!(objectives.len(), count * k, "flat objective block shape");
    assert_eq!(ranks.len(), count, "one rank per point");
    crowding.clear();
    crowding.resize(count, 0.0);
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for front in 0..=max_rank {
        scratch.members.clear();
        scratch
            .members
            .extend((0..count).filter(|&i| ranks[i] == front));
        let n = scratch.members.len();
        if n == 0 {
            continue;
        }
        if n <= 2 {
            for &m in &scratch.members {
                crowding[m] = f64::INFINITY;
            }
            continue;
        }
        for obj in 0..k {
            scratch.order.clear();
            scratch.order.extend_from_slice(&scratch.members);
            // Stable sort by the objective column: same permutation as the seed path's
            // stable `sort_by` under the same NaN-tolerant comparator, without its
            // allocation.
            stable_sort_indices(&mut scratch.order, &mut scratch.merge, |a, b| {
                objectives[a * k + obj]
                    .partial_cmp(&objectives[b * k + obj])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let order = &scratch.order;
            let min_v = objectives[order[0] * k + obj];
            let max_v = objectives[order[n - 1] * k + obj];
            crowding[order[0]] = f64::INFINITY;
            crowding[order[n - 1]] = f64::INFINITY;
            let span = max_v - min_v;
            if span <= f64::EPSILON {
                continue;
            }
            for w in 1..(n - 1) {
                let prev = objectives[order[w - 1] * k + obj];
                let next = objectives[order[w + 1] * k + obj];
                crowding[order[w]] += (next - prev) / span;
            }
        }
    }
}

/// Indices of the non-dominated rows of a flat objective block, ascending, appended to
/// `out` after clearing it. Matches [`non_dominated_indices`] exactly.
pub fn non_dominated_indices_flat(
    objectives: &[f64],
    count: usize,
    k: usize,
    out: &mut Vec<usize>,
) {
    assert_eq!(objectives.len(), count * k, "flat objective block shape");
    out.clear();
    'outer: for i in 0..count {
        for j in 0..count {
            if i != j && dominates_rows(objectives, k, j, i) {
                continue 'outer;
            }
        }
        out.push(i);
    }
}

/// Stable sort of an index buffer against a caller-owned merge scratch.
///
/// Bottom-up merge sort over insertion-sorted runs. Stability makes the result the
/// *unique* stably-sorted permutation for a given comparator, which is what lets the flat
/// engine reproduce `slice::sort_by` (a stable merge sort that allocates its own buffer)
/// without allocating once `scratch` is warm.
pub(crate) fn stable_sort_indices<F: FnMut(usize, usize) -> std::cmp::Ordering>(
    v: &mut [usize],
    scratch: &mut Vec<usize>,
    mut cmp: F,
) {
    const RUN: usize = 16;
    let n = v.len();
    // Insertion-sort short runs (stable); short inputs are done after this pass.
    let mut start = 0;
    while start < n {
        let end = (start + RUN).min(n);
        for i in (start + 1)..end {
            let x = v[i];
            let mut j = i;
            while j > start && cmp(x, v[j - 1]) == std::cmp::Ordering::Less {
                v[j] = v[j - 1];
                j -= 1;
            }
            v[j] = x;
        }
        start = end;
    }
    if n <= RUN {
        return;
    }
    scratch.clear();
    scratch.resize(n, 0);
    let mut width = RUN;
    while width < n {
        let mut start = 0;
        while start + width < n {
            let mid = start + width;
            let end = (start + 2 * width).min(n);
            // Merge v[start..mid] and v[mid..end] into the scratch, taking the left run on
            // ties (stability), then copy back.
            let (mut l, mut r, mut o) = (start, mid, start);
            while l < mid && r < end {
                if cmp(v[r], v[l]) == std::cmp::Ordering::Less {
                    scratch[o] = v[r];
                    r += 1;
                } else {
                    scratch[o] = v[l];
                    l += 1;
                }
                o += 1;
            }
            let left_remaining = mid - l;
            scratch[o..o + left_remaining].copy_from_slice(&v[l..mid]);
            scratch[o + left_remaining..end].copy_from_slice(&v[r..end]);
            v[start..end].copy_from_slice(&scratch[start..end]);
            start = end;
        }
        width *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominates_basic_cases() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 1.0]));
    }

    #[test]
    fn compare_is_antisymmetric() {
        assert_eq!(compare(&[1.0, 1.0], &[2.0, 2.0]), Dominance::Dominates);
        assert_eq!(compare(&[2.0, 2.0], &[1.0, 1.0]), Dominance::DominatedBy);
        assert_eq!(compare(&[1.0, 3.0], &[3.0, 1.0]), Dominance::Indifferent);
        assert_eq!(compare(&[1.0, 1.0], &[1.0, 1.0]), Dominance::Indifferent);
    }

    #[test]
    #[should_panic]
    fn dominates_rejects_length_mismatch() {
        dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn non_dominated_filters_interior_points() {
        let pts = vec![
            vec![1.0, 5.0],
            vec![2.0, 3.0],
            vec![3.0, 4.0], // dominated by (2, 3)
            vec![4.0, 1.0],
            vec![2.0, 3.0], // duplicate of index 1: kept
        ];
        let idx = non_dominated_indices(&pts);
        assert_eq!(idx, vec![0, 1, 3, 4]);
        assert_eq!(non_dominated(&pts).len(), 4);
    }

    #[test]
    fn non_dominated_single_point() {
        let pts = vec![vec![1.0, 2.0, 3.0]];
        assert_eq!(non_dominated_indices(&pts), vec![0]);
    }

    #[test]
    fn fast_sort_ranks_layered_fronts() {
        let pts = vec![
            vec![1.0, 1.0], // front 0 (dominates everything)
            vec![2.0, 2.0], // front 1
            vec![3.0, 3.0], // front 2
            vec![1.5, 2.5], // front 1 (dominated only by front 0)
        ];
        let ranks = fast_non_dominated_sort(&pts);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[1], 1);
        assert_eq!(ranks[2], 2);
        assert_eq!(ranks[3], 1);
    }

    #[test]
    fn fast_sort_front0_matches_non_dominated() {
        let pts = vec![
            vec![1.0, 5.0],
            vec![2.0, 3.0],
            vec![3.0, 4.0],
            vec![4.0, 1.0],
        ];
        let ranks = fast_non_dominated_sort(&pts);
        let front0: Vec<usize> = ranks
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(front0, non_dominated_indices(&pts));
    }

    #[test]
    fn crowding_distance_boundaries_are_infinite() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 1.0],
        ];
        let d = crowding_distance(&pts);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite() && d[2] > 0.0);
    }

    #[test]
    fn crowding_distance_small_fronts_are_infinite() {
        assert!(crowding_distance(&[vec![1.0, 2.0]])
            .iter()
            .all(|d| d.is_infinite()));
        assert!(crowding_distance(&[vec![1.0, 2.0], vec![2.0, 1.0]])
            .iter()
            .all(|d| d.is_infinite()));
        assert!(crowding_distance(&[]).is_empty());
    }

    #[test]
    fn crowding_distance_identical_objective_column() {
        // Degenerate span in one objective must not produce NaN.
        let pts = vec![vec![1.0, 1.0], vec![2.0, 1.0], vec![3.0, 1.0]];
        let d = crowding_distance(&pts);
        assert!(d.iter().all(|v| !v.is_nan()));
    }

    fn flatten(points: &[Vec<f64>]) -> (Vec<f64>, usize, usize) {
        let k = points.first().map_or(0, Vec::len);
        let flat: Vec<f64> = points.iter().flatten().copied().collect();
        (flat, points.len(), k)
    }

    /// Mixed fronts with duplicated points and a constant column — the flat pass must be
    /// bit-identical to the nested seed helpers.
    fn awkward_points() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 5.0, 2.0],
            vec![2.0, 3.0, 2.0],
            vec![3.0, 4.0, 2.0],
            vec![4.0, 1.0, 2.0],
            vec![2.0, 3.0, 2.0],
            vec![5.0, 5.0, 2.0],
            vec![1.0, 5.0, 2.0],
        ]
    }

    #[test]
    fn flat_sort_matches_nested_sort() {
        let points = awkward_points();
        let (flat, n, k) = flatten(&points);
        let mut ranks = Vec::new();
        let mut scratch = DominanceScratch::default();
        fast_non_dominated_sort_flat(&flat, n, k, &mut ranks, &mut scratch);
        assert_eq!(ranks, fast_non_dominated_sort(&points));
        // A warm scratch must reproduce the result (buffers are reset, not stale).
        fast_non_dominated_sort_flat(&flat, n, k, &mut ranks, &mut scratch);
        assert_eq!(ranks, fast_non_dominated_sort(&points));
    }

    #[test]
    fn two_objective_sweep_matches_the_pairwise_sort_with_ties_and_duplicates() {
        // Values from a small grid, so equal coordinates, duplicate points and signed zeros
        // are common; infinities too. NaN rows take the pairwise pass and are checked by
        // `flat_sort_matches_nested_sort`.
        let grid = [
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            grid[(state % grid.len() as u64) as usize]
        };
        let (mut ranks, mut scratch) = (Vec::new(), DominanceScratch::default());
        for n in [0, 1, 2, 3, 7, 16, 17, 40, 80] {
            for _ in 0..40 {
                let points: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next()]).collect();
                let (flat, count, k) = flatten(&points);
                fast_non_dominated_sort_flat(&flat, count, k, &mut ranks, &mut scratch);
                assert_eq!(ranks, fast_non_dominated_sort(&points), "{points:?}");
            }
        }
    }

    #[test]
    fn flat_crowding_matches_per_front_nested_crowding() {
        let points = awkward_points();
        let (flat, n, k) = flatten(&points);
        let mut scratch = DominanceScratch::default();
        let mut ranks = Vec::new();
        fast_non_dominated_sort_flat(&flat, n, k, &mut ranks, &mut scratch);
        let mut flat_crowding = Vec::new();
        per_front_crowding_flat(&flat, n, k, &ranks, &mut flat_crowding, &mut scratch);

        // Nested reference: crowding_distance applied front by front, exactly as the seed
        // NSGA-II loop did.
        let mut expected = vec![0.0; n];
        let max_rank = ranks.iter().copied().max().unwrap();
        for front in 0..=max_rank {
            let members: Vec<usize> = (0..n).filter(|&i| ranks[i] == front).collect();
            let pts: Vec<Vec<f64>> = members.iter().map(|&i| points[i].clone()).collect();
            let d = crowding_distance(&pts);
            for (idx, &m) in members.iter().enumerate() {
                expected[m] = d[idx];
            }
        }
        assert_eq!(flat_crowding.len(), n);
        for (a, b) in flat_crowding.iter().zip(&expected) {
            assert!(
                (a.is_infinite() && b.is_infinite()) || a == b,
                "crowding diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn flat_non_dominated_matches_nested() {
        let points = awkward_points();
        let (flat, n, k) = flatten(&points);
        let mut out = Vec::new();
        non_dominated_indices_flat(&flat, n, k, &mut out);
        assert_eq!(out, non_dominated_indices(&points));
    }

    #[test]
    fn stable_sort_matches_std_stable_sort() {
        let mut scratch = Vec::new();
        // Many duplicated keys across several merge widths: the scratch-backed sort must
        // produce exactly `slice::sort_by`'s (stable) permutation.
        for n in [0usize, 1, 2, 6, 16, 17, 33, 100, 257] {
            let keys: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64).collect();
            let mut ours: Vec<usize> = (0..n).collect();
            stable_sort_indices(&mut ours, &mut scratch, |a, b| {
                keys[a]
                    .partial_cmp(&keys[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut expected: Vec<usize> = (0..n).collect();
            expected.sort_by(|&a, &b| {
                keys[a]
                    .partial_cmp(&keys[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            assert_eq!(ours, expected, "n = {n}");
        }
    }
}
