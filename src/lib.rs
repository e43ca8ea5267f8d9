//! # drtree — stabilizing peer-to-peer spatial filters
//!
//! A production-quality Rust reproduction of *"Stabilizing Peer-to-Peer
//! Spatial Filters"* (Bianchi, Datta, Felber, Gradinariu — ICDCS 2007):
//! the **DR-tree**, a self-stabilizing distributed R-tree overlay for
//! content-based publish/subscribe with multi-dimensional range filters.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`spatial`] | `drtree-spatial` | rectangles, points, the filter language, containment graphs |
//! | [`rtree`] | `drtree-rtree` | packed (Hilbert bulk-loaded) R-tree + the linear/quadratic/R\* split methods |
//! | [`sim`] | `drtree-sim` | deterministic discrete-event & round simulation engines |
//! | [`core`] | `drtree-core` | the DR-tree protocol, legality checking, churn analysis |
//! | [`pubsub`] | `drtree-pubsub` | the attribute-space broker + routing statistics |
//! | [`baselines`] | `drtree-baselines` | containment-tree, per-dimension, flooding baselines |
//! | [`workloads`] | `drtree-workloads` | subscription/event/churn generators |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Quick start
//!
//! ```
//! use drtree::{Broker, DrTreeConfig, Event, FilterExpr, Op, Schema};
//!
//! // A two-attribute content space.
//! let schema = Schema::new(["temperature", "humidity"]);
//! let mut broker: Broker<2> = Broker::new(schema, DrTreeConfig::default(), 42)?;
//!
//! // Subscribe: "temperature in [20, 30] and humidity in [0, 50]".
//! let alice = broker.subscribe(
//!     &FilterExpr::new()
//!         .and("temperature", Op::Ge, 20.0)
//!         .and("temperature", Op::Le, 30.0)
//!         .and("humidity", Op::Ge, 0.0)
//!         .and("humidity", Op::Le, 50.0),
//! )?;
//! let bob = broker.subscribe(
//!     &FilterExpr::new()
//!         .and("temperature", Op::Ge, 0.0)
//!         .and("temperature", Op::Le, 100.0)
//!         .and("humidity", Op::Ge, 0.0)
//!         .and("humidity", Op::Le, 100.0),
//! )?;
//!
//! // Publish an event from Bob; Alice is interested, nobody is missed.
//! let report = broker.publish(bob, &Event::new().with("temperature", 25.0).with("humidity", 10.0))?;
//! assert_eq!(report.matching, vec![alice]);
//! assert!(report.false_negatives.is_empty());
//! # Ok::<(), drtree::pubsub::BrokerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use drtree_baselines as baselines;
pub use drtree_core as core;
pub use drtree_pubsub as pubsub;
pub use drtree_rtree as rtree;
pub use drtree_sim as sim;
pub use drtree_spatial as spatial;
pub use drtree_workloads as workloads;

pub use drtree_core::{
    churn, corruption, legal, DrTreeCluster, DrTreeConfig, DrtNode, FpReorgConfig, ProcessId,
    PublishReport, SplitMethod,
};
pub use drtree_pubsub::{Broker, IngressConfig, MultiBroker, RoutingStats};
pub use drtree_rtree::{PackedRTree, RTreeConfig};
pub use drtree_spatial::{ContainmentGraph, Event, FilterExpr, Op, Point, Rect, Schema};
pub use drtree_workloads::{EventWorkload, PoissonChurn, SubscriptionWorkload};
