//! Security against mobile eavesdroppers (Section 2, Appendix A).

pub mod broadcast;
pub mod keys;
pub mod static_to_mobile;
pub mod unicast;

pub use broadcast::{
    broadcast_packing, mobile_secure_broadcast, CongestionSensitiveCompiler, SecureBroadcastReport,
    SecureCompilerReport,
};
pub use keys::{KeyPool, KeyScheduleError, PayloadTooWide};
pub use static_to_mobile::{MobileSecureReport, StaticToMobileCompiler};
pub use unicast::{mobile_secure_multicast, mobile_secure_unicast, UnicastInstance, UnicastReport};
