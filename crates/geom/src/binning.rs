//! The unit-width bin sort applied to the point database before indexing.
//!
//! §IV-A of the paper: *"Before indexing, we sort the points `p_i ∈ D` into
//! bins in the x and y dimensions of unit width."* The packed R-tree then
//! fills each leaf MBB with `r` **consecutive** points of the sorted order,
//! so the quality of the leaves — and with it the number of candidates a
//! query has to filter — depends entirely on this ordering keeping nearby
//! points adjacent.
//!
//! The sort key is `(bin_y, bin_x)` with ties broken by the exact
//! coordinates, i.e. a row-major scan over a grid of `width`-sized cells.
//! Within a row of bins the scan direction alternates (a boustrophedon /
//! serpentine order) so consecutive bins are always spatially adjacent,
//! which measurably tightens leaf MBBs compared to a plain row-major scan.

use crate::point::Point2;
use crate::PointId;

/// How consecutive bin rows are traversed when producing the final order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BinOrder {
    /// Every row is scanned left-to-right. The simplest reading of the
    /// paper's description.
    RowMajor,
    /// Rows alternate scan direction so the walk never jumps across the
    /// full dataset width between rows. Default.
    #[default]
    Serpentine,
}

/// Computes the permutation that sorts `points` into unit-width bins.
///
/// Returns a vector `perm` such that `perm[i]` is the index (into `points`)
/// of the `i`-th point in binned order. The caller applies the permutation
/// to whatever parallel arrays it maintains.
///
/// Non-finite coordinates are rejected by debug assertion; in release they
/// sort last.
pub fn bin_sort(points: &[Point2], order: BinOrder) -> Vec<PointId> {
    bin_sort_with_width(points, 1.0, order)
}

/// [`bin_sort`] with an explicit bin width.
///
/// The paper uses unit-width bins because its datasets live in degree-scale
/// TEC map coordinates; for other embeddings a width of roughly the largest
/// ε of interest keeps each ε-query touching O(1) bins.
///
/// # Panics
///
/// Panics if `width` is not strictly positive.
pub fn bin_sort_with_width(points: &[Point2], width: f64, order: BinOrder) -> Vec<PointId> {
    assert!(
        width > 0.0 && width.is_finite(),
        "bin width must be positive and finite, got {width}"
    );
    debug_assert!(
        points.iter().all(Point2::is_finite),
        "bin_sort requires finite coordinates"
    );
    assert!(
        points.len() <= PointId::MAX as usize,
        "dataset exceeds PointId capacity"
    );

    let mut perm: Vec<PointId> = (0..points.len() as PointId).collect();
    perm.sort_unstable_by(|&a, &b| {
        let ka = bin_key(&points[a as usize], width, order);
        let kb = bin_key(&points[b as usize], width, order);
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    perm
}

/// Merges a batch of `new` points into an existing [`bin_sort`] order.
///
/// `sorted` must already be in unit-width bin order for the same
/// `order` (e.g. the tree-order points of a packed R-tree). Ids in the
/// returned order index the concatenation `sorted ++ new`: `i < n`
/// is `sorted[i]`, `n + j` is `new[j]`. The batch is bin-sorted on its
/// own (O(k log k)) and merged with one O(n + k) walk, keeping `sorted`
/// elements first on ties. Because the bin key is absolute (unit width,
/// independent of the data), the merged key sequence equals
/// [`bin_sort`] of the union — the order differs at most between
/// identical points.
///
/// If `sorted` is not in bin order the result is still a permutation of
/// `0..n + k`, just not a bin order.
pub fn bin_merge(sorted: &[Point2], new: &[Point2], order: BinOrder) -> Vec<PointId> {
    let n = sorted.len();
    assert!(
        n + new.len() <= PointId::MAX as usize,
        "dataset exceeds PointId capacity"
    );
    let key = |p: &Point2| bin_key(p, 1.0, order);
    let batch = bin_sort(new, order);
    let mut merged = Vec::with_capacity(n + new.len());
    let mut old = 0;
    for j in batch {
        let k = key(&new[j as usize]);
        while old < n && key(&sorted[old]) <= k {
            merged.push(old as PointId);
            old += 1;
        }
        merged.push((n + j as usize) as PointId);
    }
    merged.extend((old..n).map(|i| i as PointId));
    merged
}

/// Sort key `(bin_y, signed bin_x, signed x, y)` implementing the
/// serpentine traversal: odd rows negate the x components so their internal
/// order is reversed.
#[inline]
fn bin_key(p: &Point2, width: f64, order: BinOrder) -> (i64, i64, f64, f64) {
    let by = (p.y / width).floor() as i64;
    let bx = (p.x / width).floor() as i64;
    let flip = matches!(order, BinOrder::Serpentine) && by.rem_euclid(2) == 1;
    if flip {
        (by, -bx, -p.x, p.y)
    } else {
        (by, bx, p.x, p.y)
    }
}

/// Applies a permutation produced by [`bin_sort`], returning the reordered
/// point vector.
pub fn apply_permutation(points: &[Point2], perm: &[PointId]) -> Vec<Point2> {
    debug_assert_eq!(points.len(), perm.len());
    perm.iter().map(|&i| points[i as usize]).collect()
}

/// Inverts a permutation: `inv[perm[i]] = i`.
///
/// Needed to translate indexes of the *sorted* database back to the
/// caller's original point ids (e.g. when reporting cluster membership for
/// externally supplied data).
pub fn invert_permutation(perm: &[PointId]) -> Vec<PointId> {
    let mut inv = vec![0 as PointId; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p as usize] = i as PointId;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn sorts_by_row_then_column() {
        let points = pts(&[(5.5, 0.5), (0.5, 0.5), (0.5, 5.5), (2.5, 0.5)]);
        let perm = bin_sort(&points, BinOrder::RowMajor);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(
            sorted,
            pts(&[(0.5, 0.5), (2.5, 0.5), (5.5, 0.5), (0.5, 5.5)])
        );
    }

    #[test]
    fn serpentine_reverses_odd_rows() {
        // Row 0 (y in [0,1)) left-to-right, row 1 (y in [1,2)) right-to-left.
        let points = pts(&[(0.5, 1.5), (2.5, 1.5), (0.5, 0.5), (2.5, 0.5)]);
        let perm = bin_sort(&points, BinOrder::Serpentine);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(
            sorted,
            pts(&[(0.5, 0.5), (2.5, 0.5), (2.5, 1.5), (0.5, 1.5)])
        );
    }

    #[test]
    fn permutation_is_a_bijection() {
        let points = pts(&[(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (0.0, 0.0), (1.5, 0.2)]);
        let perm = bin_sort(&points, BinOrder::Serpentine);
        let mut seen = vec![false; points.len()];
        for &i in &perm {
            assert!(!seen[i as usize], "duplicate index {i}");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn invert_roundtrips() {
        let points = pts(&[(9.0, 9.0), (0.0, 0.0), (5.0, 5.0), (1.0, 8.0)]);
        let perm = bin_sort(&points, BinOrder::Serpentine);
        let inv = invert_permutation(&perm);
        for orig in 0..points.len() as PointId {
            assert_eq!(perm[inv[orig as usize] as usize], orig);
        }
    }

    #[test]
    fn custom_width_changes_binning() {
        // With width 10 all these share a bin and sort by exact coords.
        let points = pts(&[(5.0, 9.0), (1.0, 2.0), (3.0, 2.0)]);
        let perm = bin_sort_with_width(&points, 10.0, BinOrder::RowMajor);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(sorted[0], Point2::new(1.0, 2.0));
        assert_eq!(sorted[1], Point2::new(3.0, 2.0));
    }

    #[test]
    fn negative_coordinates_bin_correctly() {
        // floor(-0.5) = -1, so (-0.5, *) precedes (0.5, *) in row-major x.
        let points = pts(&[(0.5, 0.5), (-0.5, 0.5)]);
        let perm = bin_sort(&points, BinOrder::RowMajor);
        let sorted = apply_permutation(&points, &perm);
        assert_eq!(sorted[0], Point2::new(-0.5, 0.5));
    }

    #[test]
    fn merge_places_batch_points_in_their_bins() {
        let sorted = pts(&[(0.5, 0.5), (2.5, 0.5), (2.5, 1.5), (0.5, 1.5)]);
        // Row 1 runs right-to-left; the duplicate lands after the old point.
        let new = pts(&[(1.5, 1.5), (1.5, 0.5), (0.5, 0.5)]);
        let merged = bin_merge(&sorted, &new, BinOrder::Serpentine);
        assert_eq!(merged, vec![0, 6, 5, 1, 2, 4, 3]);
        assert_eq!(bin_merge(&sorted, &[], BinOrder::Serpentine), [0, 1, 2, 3]);
        assert_eq!(bin_merge(&[], &new, BinOrder::Serpentine), [2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_width_rejected() {
        bin_sort_with_width(&[], 0.0, BinOrder::RowMajor);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(bin_sort(&[], BinOrder::Serpentine).is_empty());
    }
}
