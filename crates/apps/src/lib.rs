//! Guest applications used throughout the paper's evaluation.
//!
//! * [`UdpEchoApp`] — the Mini-OS UDP server of the instantiation and
//!   memory-density experiments (Figs. 4–5);
//! * [`MemhogApp`] — the resident-memory + fork-server workload of the
//!   memory-scaling experiment (Fig. 6);
//! * [`NginxApp`] — the clone-scaling HTTP server (Fig. 7);
//! * [`RedisApp`] — the fork-snapshotting key-value store (Fig. 8);
//! * [`FuzzAdapterApp`] — the AFL syscall adapter (Fig. 9);
//! * [`FaasFnApp`] — the Python "Hello World" FaaS function (Figs. 10–11).

pub mod faas_fn;
pub mod fuzz_adapter;
pub mod memhog;
pub mod nginx;
pub mod redis;
pub mod udp_echo;

pub use faas_fn::{FaasFnApp, FN_PORT, HANDLER_FILE};
pub use fuzz_adapter::{default_syscall_table, interpret_input, ExecResult, FuzzAdapterApp, SYSCALL_TABLE_SIZE, SYS_GETPPID};
pub use memhog::{MemhogApp, MEMHOG_PORT};
pub use nginx::{NginxApp, NginxRole, HTTP_PORT};
pub use redis::{RedisApp, RedisRole, DUMP_FILE, REDIS_PORT};
pub use udp_echo::{UdpEchoApp, NOTIFY_PORT};
