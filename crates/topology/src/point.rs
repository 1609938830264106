//! 2-D geometry for spatial network placement.

/// A point in the simulation plane (units ≈ kilometers, per §V-A of the
/// paper: a 10 000 × 10 000 unit area with 1 unit ≈ 1 km).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    ///
    /// # Example
    ///
    /// ```
    /// use qnet_topology::Point;
    /// let d = Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0));
    /// assert_eq!(d, 5.0);
    /// ```
    pub fn distance(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Angle of this point around `center`, in radians in `(-π, π]`.
    ///
    /// Used by the Watts–Strogatz generator to order spatially placed
    /// nodes along a ring.
    pub fn angle_around(self, center: Point) -> f64 {
        (self.y - center.y).atan2(self.x - center.x)
    }
}

/// Centroid of a set of points; the origin for an empty set.
pub fn centroid(points: &[Point]) -> Point {
    if points.is_empty() {
        return Point::default();
    }
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
    Point::new(sx / points.len() as f64, sy / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.5);
        assert_eq!(a.distance(b), b.distance(a));
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn triangle_inequality() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let c = Point::new(5.0, 5.0);
        assert!(a.distance(b) <= a.distance(c) + c.distance(b) + 1e-12);
    }

    #[test]
    fn centroid_of_square() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        assert_eq!(centroid(&pts), Point::new(1.0, 1.0));
        assert_eq!(centroid(&[]), Point::default());
    }

    #[test]
    fn angles_order_around_center() {
        let c = Point::new(0.0, 0.0);
        let east = Point::new(1.0, 0.0).angle_around(c);
        let north = Point::new(0.0, 1.0).angle_around(c);
        let west = Point::new(-1.0, 0.0).angle_around(c);
        assert!(east < north && north < west);
    }
}
