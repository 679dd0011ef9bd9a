//! One module per regenerated table/figure. The [`registry`](crate::registry)
//! maps experiment ids to these entry points.

pub mod extensions;
pub mod fig01_arrival;
pub mod fig02_recovery;
pub mod fig03_loss_cdf;
pub mod fig04_ack_timeout;
pub mod fig05_burst_cases;
pub mod fig06_ack_cdf;
pub mod fig10_accuracy;
pub mod fig11_single_ack;
pub mod fig12_mptcp;
pub mod table1;
pub mod table3;
pub mod va_delack;
pub mod vb_qsweep;
pub mod window_evolution;
