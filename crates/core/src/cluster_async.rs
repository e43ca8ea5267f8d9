//! The asynchronous harness: the same overlay, the same driver, on the
//! event-driven engine.
//!
//! [`DrTreeCluster`](crate::DrTreeCluster) counts synchronous rounds —
//! the right ruler for the stabilization lemmas (Figs. 10–14 repair in
//! "steps"). [`AsyncDrTreeCluster`] is the *identical* driver
//! ([`Overlay`]) over the *identical* protocol code — join (Fig. 8),
//! leave (Fig. 9), dissemination (§2.3) — on
//! [`drtree_sim::EventNetwork`]: message latencies are drawn from a
//! latency model, messages can be lost, and every node paces its own
//! stabilization tick ([`DrTreeConfig::tick_interval`], the driver's
//! step on this engine) — the paper's actual asynchronous system model
//! (§2.1). The asynchronous integration tests show that legality,
//! recovery and zero false negatives survive latency jitter and message
//! loss.

use drtree_sim::{EventNetwork, EventSchedule, NetConfig};
use drtree_spatial::Rect;

use crate::cluster::Overlay;
use crate::config::DrTreeConfig;
use crate::protocol::node::DrtNode;

/// A DR-tree overlay on the asynchronous discrete-event engine.
///
/// # Example
///
/// ```
/// use drtree_core::{AsyncDrTreeCluster, DrTreeConfig};
/// use drtree_sim::{LatencyModel, NetConfig};
/// use drtree_spatial::Rect;
///
/// let net = NetConfig {
///     latency: LatencyModel::Uniform { min: 1, max: 4 },
///     ..NetConfig::default()
/// };
/// let mut config = DrTreeConfig::default();
/// config.tick_interval = 8; // nodes pace their own stabilization
/// config.failure_timeout = 6; // in ticks, scaled for jitter
/// let mut cluster: AsyncDrTreeCluster<2> = AsyncDrTreeCluster::new(config, net, 7);
/// for i in 0..12u32 {
///     let x = f64::from(i % 4) * 20.0;
///     let y = f64::from(i / 4) * 20.0;
///     cluster.add_subscriber(Rect::new([x, y], [x + 25.0, y + 25.0]));
/// }
/// cluster.stabilize(200_000).expect("legal under asynchrony");
/// ```
pub type AsyncDrTreeCluster<const D: usize> = Overlay<D, EventSchedule<DrtNode<D>>>;

impl<const D: usize> AsyncDrTreeCluster<D> {
    /// Creates an empty asynchronous overlay.
    ///
    /// # Panics
    ///
    /// Panics if `config.tick_interval == 0` — asynchronous nodes must
    /// pace their own ticks.
    pub fn new(config: DrTreeConfig, net_config: NetConfig, seed: u64) -> Self {
        assert!(
            config.tick_interval > 0,
            "asynchronous operation requires a self-arming tick_interval"
        );
        Self::over(EventNetwork::new(net_config, seed), config)
    }

    /// Builds an overlay over `filters` by materializing a legitimate
    /// configuration directly (see [`crate::bulk`]) instead of joining
    /// one subscriber at a time — the asynchronous counterpart of
    /// [`crate::DrTreeCluster::build_bulk`], making larger asynchronous
    /// fault experiments practical.
    ///
    /// # Panics
    ///
    /// Panics if `config.tick_interval == 0` or if the materialized
    /// configuration is not legal (a bug, not an input condition).
    pub fn build_bulk(
        config: DrTreeConfig,
        net_config: NetConfig,
        seed: u64,
        filters: &[Rect<D>],
    ) -> Self {
        Self::new(config, net_config, seed).materialize(filters)
    }
}
