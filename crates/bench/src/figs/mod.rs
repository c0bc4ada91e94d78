//! One module per paper artefact. Each returns [`crate::Report`]s so the
//! thin `src/bin/*` wrappers and the `all` runner can share the logic, and
//! integration tests can assert on the *shapes* without parsing stdout.

pub mod ablation;
pub mod checkpoint_overhead;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod net_loopback;
pub mod obs_overhead;
pub mod sub_scaling;
pub mod table4;
