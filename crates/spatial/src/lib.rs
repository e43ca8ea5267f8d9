//! Spatial primitives for the DR-tree reproduction.
//!
//! This crate implements the geometric and filter-language layer of
//! *"Stabilizing Peer-to-Peer Spatial Filters"* (Bianchi, Datta, Felber,
//! Gradinariu — ICDCS 2007):
//!
//! * [`Point`] — an event position in `D`-dimensional attribute space
//!   (paper §2.1: "An event specifies a value for each attribute and
//!   corresponds geometrically to a point").
//! * [`Rect`] — a poly-space rectangle; subscriptions (content-based
//!   filters) and minimum bounding rectangles (MBRs) are both rectangles.
//! * [`filter`] — the predicate language: conjunctions of range predicates
//!   over named attributes, compiled against a [`Schema`] into a [`Rect`].
//! * [`containment`] — the subscription-containment partial order and its
//!   Hasse diagram (the paper's Figure 1 "containment graph").
//! * [`hilbert`] — D-dimensional Hilbert-curve indexing (Skilling's
//!   transpose algorithm), the sort key behind the packed R-tree
//!   backend's bulk loading.
//! * [`sample`] — the running example of the paper (subscriptions
//!   `S1..S8`, events `a..d` of Figure 1), with coordinates chosen to
//!   reproduce every containment/matching fact stated in the text.
//! * [`reference`](mod@reference) — a linear-scan model of a spatial index, the
//!   expected answer of the workspace's matching tests.
//!
//! # Example
//!
//! ```
//! use drtree_spatial::{Rect, Point};
//!
//! let filter: Rect<2> = Rect::new([0.0, 0.0], [10.0, 5.0]);
//! let event = Point::new([3.0, 4.0]);
//! assert!(filter.contains_point(&event));
//!
//! let other = Rect::new([2.0, 1.0], [4.0, 4.5]);
//! assert!(filter.contains_rect(&other)); // subscription containment
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod containment;
pub mod filter;
pub mod hilbert;
mod point;
mod rect;
pub mod reference;
pub mod sample;

pub use containment::ContainmentGraph;
pub use filter::{Event, FilterExpr, Op, Predicate, Schema};
pub use point::Point;
pub use rect::{InvalidRectError, Rect};
