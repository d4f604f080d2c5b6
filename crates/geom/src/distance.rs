//! Euclidean distance.
//!
//! DBSCAN's definition (§II-B of the paper) allows an arbitrary distance
//! function `dist(p, q)`; the evaluation uses Euclidean distance, and so
//! does every index and clustering routine in this workspace.

use crate::point::Point2;

/// Squared Euclidean distance (free function mirror of
/// [`Point2::dist_sq`], convenient for iterator pipelines).
#[inline(always)]
pub fn dist_sq(a: &Point2, b: &Point2) -> f64 {
    a.dist_sq(b)
}

/// Euclidean distance.
#[inline]
pub fn dist(a: &Point2, b: &Point2) -> f64 {
    a.dist(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Point2 = Point2::new(0.0, 0.0);
    const B: Point2 = Point2::new(3.0, 4.0);

    #[test]
    fn euclidean_matches_point_methods() {
        assert_eq!(dist(&A, &B), 5.0);
        assert_eq!(dist_sq(&A, &B), 25.0);
    }
}
