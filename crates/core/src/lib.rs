//! # transit-core
//!
//! Core models from *"How Many Tiers? Pricing in the Internet Transit
//! Market"* (Valancius, Lumezanu, Feamster, Johari, Vazirani — ACM
//! SIGCOMM 2011): demand models, cost models, model fitting, bundling
//! strategies, profit-maximizing pricing, and the profit-capture metric.
//!
//! ## Pipeline
//!
//! ```text
//! observed flows (q_i, d_i)            [transit-datasets / transit-netflow]
//!     │
//!     ├─ cost model  → relative costs f(d_i)        [cost]
//!     ├─ demand fit  → valuations v_i               [fitting]
//!     └─ gamma calibration → absolute costs c_i     [fitting]
//!     │
//!     ▼
//! fitted market (CedMarket / LogitMarket)           [market]
//!     │
//!     ├─ bundling strategy → tiers                  [bundling]
//!     ├─ optimal per-tier prices                    [pricing, demand]
//!     └─ profit capture vs. #tiers                  [capture]
//! ```
//!
//! ## Example
//!
//! ```
//! use transit_core::bundling::{StrategyKind};
//! use transit_core::capture::capture_curve;
//! use transit_core::cost::LinearCost;
//! use transit_core::demand::ced::CedAlpha;
//! use transit_core::fitting::fit_ced;
//! use transit_core::flow::TrafficFlow;
//! use transit_core::market::CedMarket;
//!
//! // Observed flows: (demand Mbps, distance miles) pairs.
//! let flows: Vec<TrafficFlow> = vec![
//!     TrafficFlow::new(0, 120.0, 5.0),
//!     TrafficFlow::new(1, 40.0, 60.0),
//!     TrafficFlow::new(2, 8.0, 300.0),
//!     TrafficFlow::new(3, 2.0, 1500.0),
//! ];
//!
//! // Fit a constant-elasticity market at a $20/Mbps blended rate.
//! let cost_model = LinearCost::new(0.2)?;
//! let fit = fit_ced(&flows, &cost_model, CedAlpha::new(1.1)?, 20.0)?;
//! let market = CedMarket::new(fit)?;
//!
//! // How much of the attainable profit do 1..=4 tiers capture?
//! let strategy = StrategyKind::ProfitWeighted.build();
//! let curve = capture_curve(&market, strategy.as_ref(), 4)?;
//! assert!(curve.capture[0].abs() < 1e-6);    // 1 tier = status quo
//! assert!(curve.capture[3] > 0.5);           // 4 tiers capture most
//! # Ok::<(), transit_core::error::TransitError>(())
//! ```
//!
//! No async runtime and no unsafe code: this is CPU-bound numerical
//! modeling, parallelized (where needed) by the experiment harness with
//! scoped threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundling;
pub mod cache;
pub mod capture;
pub mod coalesce;
pub mod cost;
pub mod demand;
pub mod error;
pub mod estimate;
pub mod exact;
pub mod fitting;
pub mod flow;
pub mod instruments;
pub mod market;
pub mod optimize;
pub mod pricing;
pub mod stats;

pub use bundling::{Bundling, BundlingStrategy, StrategyKind};
pub use capture::{capture_curve, capture_curves, capture_for_bundling, capture_for_strategy};
pub use coalesce::CoalescedMarket;
pub use cost::{CostFamily, CostModel};
pub use demand::DemandFamily;
pub use error::{Result, TransitError};
pub use estimate::{estimate_ced_alpha, estimate_logit_alpha, PricePoint};
pub use fitting::{fit_ced, fit_logit, CedFit, LogitFit};
pub use flow::{DestClass, FlowId, Region, TrafficFlow};
pub use instruments::{instrument_report, InstrumentOutcome, PricingInstrument};
pub use market::{CedMarket, LogitMarket, TransitMarket};
