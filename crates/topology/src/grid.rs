//! Regular lattice topologies.
//!
//! The fidelity-aware routing line of work the paper cites (Li et al.
//! \[15\]) evaluates on 2-D lattices; a regular grid is also the standard
//! worst case for the "average degree" knob (every interior node has
//! degree 4, no shortcuts). This module builds `rows × cols` grids with
//! uniform spacing — deterministic, no RNG.

use qnet_graph::{Graph, NodeId};

use crate::point::Point;
use crate::spec::SpatialGraph;

/// Builds a `rows × cols` lattice with `spacing` length units between
/// horizontal/vertical neighbors. Node `(r, c)` has index `r * cols + c`.
///
/// # Panics
///
/// Panics when `rows == 0`, `cols == 0`, or `spacing <= 0`.
///
/// # Example
///
/// ```
/// use qnet_topology::grid::grid;
/// let g = grid(3, 4, 1000.0);
/// assert_eq!(g.node_count(), 12);
/// assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
/// ```
pub fn grid(rows: usize, cols: usize, spacing: f64) -> SpatialGraph {
    assert!(rows > 0 && cols > 0, "grid needs positive dimensions");
    assert!(spacing > 0.0, "spacing must be positive");
    let mut g: SpatialGraph = Graph::with_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            g.add_node(Point::new(c as f64 * spacing, r as f64 * spacing));
        }
    }
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1), spacing);
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c), spacing);
            }
        }
    }
    g
}

/// The node id at grid coordinates `(row, col)` for a grid of `cols`
/// columns.
pub fn grid_node(row: usize, col: usize, cols: usize) -> NodeId {
    NodeId::new(row * cols + col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_graph::connectivity::is_connected;
    use qnet_graph::paths::bfs_path;

    #[test]
    fn counts_and_connectivity() {
        let g = grid(5, 7, 500.0);
        assert_eq!(g.node_count(), 35);
        assert_eq!(g.edge_count(), 5 * 6 + 4 * 7);
        assert!(is_connected(&g));
    }

    #[test]
    fn interior_degree_is_four_corners_two() {
        let g = grid(4, 4, 100.0);
        assert_eq!(g.degree(grid_node(0, 0, 4)), 2);
        assert_eq!(g.degree(grid_node(1, 1, 4)), 4);
        assert_eq!(g.degree(grid_node(0, 1, 4)), 3);
    }

    #[test]
    fn manhattan_distances_in_hops() {
        let g = grid(6, 6, 100.0);
        let p = bfs_path(&g, grid_node(0, 0, 6), grid_node(5, 5, 6)).unwrap();
        assert_eq!(p.len(), 10, "hop distance = Manhattan distance");
    }

    #[test]
    fn edge_lengths_match_spacing() {
        let g = grid(3, 3, 250.0);
        for e in g.edge_refs() {
            assert!((e.payload - 250.0).abs() < 1e-9);
        }
    }

    #[test]
    fn single_row_is_a_path() {
        let g = grid(1, 5, 100.0);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(qnet_graph::connectivity::bridges(&g).len(), 4);
    }

    #[test]
    #[should_panic(expected = "positive dimensions")]
    fn zero_dimension_rejected() {
        grid(0, 3, 100.0);
    }
}
