//! The assembled virtualization platform and its event loop.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::rc::Rc;

use devices::udev::UdevBus;
use devices::{DevError, DeviceManager};
use guest::{ForkOutcome, GuestAction, GuestApp, GuestEnv, GuestHeap, HOST_MAC};
use hypervisor::cloneop::{CloneOp, CloneOpResult};
use hypervisor::error::HvError;
use hypervisor::{Hypervisor, MachineConfig, PendingEvent};
use netmux::{
    Bond,
    ConnId,
    MacAddr,
    NetStack,
    Packet,
    SelectGroup,
    SockEvent, //
};
use sim_core::rollup::render_family_csv;
use sim_core::{
    Clock,
    CostModel,
    DomId,
    FamilyRow,
    FlightEvent,
    FlightRecorder,
    SimDuration,
    SplitMix64,
    TraceConfig,
    TraceSink, //
};
use toolstack::{CreatedDomain, Dom0Model, DomainConfig, KernelImage, Xl, XlError};
use xencloned::{CloneDaemonError, Xencloned};
use xenstore::{XsError, Xenstore};

use crate::audit::{self, AuditReport};

/// The host endpoint's IP (Dom0 side of the bridge).
pub const HOST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Which clone-interface multiplexer the platform uses (§5.2.1 evaluates
/// both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MuxKind {
    /// Plain bridge only; no clone multiplexing.
    None,
    /// Linux bond, balance-xor with the layer3+4 policy (the paper's
    /// stateless choice).
    #[default]
    Bond,
    /// Open vSwitch select group (hash-based).
    Ovs,
}

/// When the platform runs the state invariant auditor on its own (see
/// [`Platform::audit`] for the on-demand entry point).
///
/// The default is resolved at [`Platform::new`] from the `NEPHELE_AUDIT`
/// environment variable (`off`/`0`, `lifecycle`/`debug`,
/// `every-op`/`every_op`/`all`; any other value panics); an explicit
/// [`PlatformConfigBuilder::audit`] choice wins over the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// Never audit automatically.
    Off,
    /// Audit after clone/destroy lifecycle transitions, in debug builds
    /// only (release builds skip the hook entirely). This is the default.
    #[default]
    Lifecycle,
    /// Audit after every platform operation and at the end of every
    /// [`Platform::run_for`], in all build profiles.
    EveryOp,
}

impl AuditMode {
    /// Reads a `NEPHELE_AUDIT` value: `off`/`0`, `lifecycle`/`debug` or
    /// `every-op`/`every_op`/`all`.
    ///
    /// # Panics
    ///
    /// On any other value, naming the variable and the accepted values.
    fn parse_env(value: &str) -> AuditMode {
        match value {
            "off" | "0" => AuditMode::Off,
            "lifecycle" | "debug" => AuditMode::Lifecycle,
            "every-op" | "every_op" | "all" => AuditMode::EveryOp,
            _ => panic!(
                "NEPHELE_AUDIT={value:?}: expected off, 0, lifecycle, debug, every-op, every_op or all"
            ),
        }
    }
}

/// Reads a `NEPHELE_TRACE` value: `1`/`on` turns tracing on, `0`/`off`
/// turns it off.
///
/// # Panics
///
/// On any other value, naming the variable and the accepted values.
fn parse_trace_env(value: &str) -> TraceConfig {
    match value {
        "1" | "on" => TraceConfig::aggregate(),
        "0" | "off" => TraceConfig::default(),
        _ => panic!("NEPHELE_TRACE={value:?}: expected 0, off, 1 or on"),
    }
}

/// Reads a `NEPHELE_FLIGHTREC` value: `1`/`on` turns flight-recorder
/// dump files on, `0`/`off` turns them off.
///
/// # Panics
///
/// On any other value, naming the variable and the accepted values.
fn parse_flightrec_env(value: &str) -> bool {
    match value {
        "1" | "on" => true,
        "0" | "off" => false,
        _ => panic!("NEPHELE_FLIGHTREC={value:?}: expected 0, off, 1 or on"),
    }
}

/// Platform-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// Hypervisor failure.
    Hv(HvError),
    /// Toolstack failure.
    Xl(XlError),
    /// Xenstore failure.
    Xs(XsError),
    /// Device failure.
    Dev(DevError),
    /// Cloning-daemon failure.
    Daemon(CloneDaemonError),
    /// The domain has no registered guest application.
    NoGuest(DomId),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Hv(e) => write!(f, "{e}"),
            PlatformError::Xl(e) => write!(f, "{e}"),
            PlatformError::Xs(e) => write!(f, "{e}"),
            PlatformError::Dev(e) => write!(f, "{e}"),
            PlatformError::Daemon(e) => write!(f, "{e}"),
            PlatformError::NoGuest(d) => write!(f, "no guest app for {d}"),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::Hv(e) => Some(e),
            PlatformError::Xl(e) => Some(e),
            PlatformError::Xs(e) => Some(e),
            PlatformError::Dev(e) => Some(e),
            PlatformError::Daemon(e) => Some(e),
            PlatformError::NoGuest(_) => None,
        }
    }
}

impl From<HvError> for PlatformError {
    fn from(e: HvError) -> Self {
        PlatformError::Hv(e)
    }
}
impl From<XlError> for PlatformError {
    fn from(e: XlError) -> Self {
        PlatformError::Xl(e)
    }
}
impl From<XsError> for PlatformError {
    fn from(e: XsError) -> Self {
        PlatformError::Xs(e)
    }
}
impl From<DevError> for PlatformError {
    fn from(e: DevError) -> Self {
        PlatformError::Dev(e)
    }
}
impl From<CloneDaemonError> for PlatformError {
    fn from(e: CloneDaemonError) -> Self {
        PlatformError::Daemon(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PlatformError>;

/// Platform construction options.
///
/// Build one with [`PlatformConfig::builder`] (preferred), start from
/// [`PlatformConfig::default`], or use the [`PlatformConfig::small`]
/// preset. The fields stay public for ad-hoc tweaking.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Machine shape (defaults to the paper's 12 GiB guest pool).
    pub machine: MachineConfig,
    /// Cost model (defaults to the calibrated model).
    pub costs: CostModel,
    /// Clone-interface multiplexer.
    pub mux: MuxKind,
    /// Master PRNG seed.
    pub seed: u64,
    /// Whether tracing is on (off by default; when off, the
    /// instrumentation throughout the platform does near-zero work).
    /// Overridable at runtime with `NEPHELE_TRACE`.
    pub tracing: TraceConfig,
    /// Directory flight-recorder dumps are written to on the first error
    /// or audit failure.
    pub flightrec_dir: PathBuf,
    /// Whether error/audit-failure dumps are written at all.
    /// `NEPHELE_FLIGHTREC` overrides it at runtime: `0`/`off` or
    /// `1`/`on`, and any other value makes [`Platform::new`] panic.
    pub flightrec_dumps: bool,
    /// Automatic-audit policy. `None` defers to `NEPHELE_AUDIT` (falling
    /// back to [`AuditMode::Lifecycle`]); `Some` pins it.
    pub audit: Option<AuditMode>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            machine: MachineConfig::default(),
            costs: CostModel::calibrated(),
            mux: MuxKind::Bond,
            seed: 0x6e65_7068_656c_65, // "nephele"
            tracing: TraceConfig::default(),
            flightrec_dir: PathBuf::from("results"),
            flightrec_dumps: true,
            audit: None,
        }
    }
}

impl PlatformConfig {
    /// Starts a builder from the default (paper-calibrated) configuration.
    ///
    /// ```
    /// use nephele::{MuxKind, PlatformConfig, TraceConfig};
    ///
    /// let cfg = PlatformConfig::builder()
    ///     .mux(MuxKind::Ovs)
    ///     .tracing(TraceConfig::aggregate())
    ///     .build();
    /// assert_eq!(cfg.mux, MuxKind::Ovs);
    /// assert_eq!(cfg.tracing, TraceConfig::aggregate());
    /// ```
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder {
            config: PlatformConfig::default(),
        }
    }

    /// A small-machine preset for tests (256 MiB pool, free costs are NOT
    /// applied — timing stays calibrated).
    pub fn small() -> Self {
        PlatformConfig::builder()
            .guest_pool_mib(256)
            .ring_capacity(128)
            .build()
    }
}

/// Builder for [`PlatformConfig`]; created by [`PlatformConfig::builder`].
#[derive(Debug, Clone)]
pub struct PlatformConfigBuilder {
    config: PlatformConfig,
}

impl PlatformConfigBuilder {
    /// Replaces the whole machine shape.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.config.machine = machine;
        self
    }

    /// Replaces the cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.config.costs = costs;
        self
    }

    /// Sets the guest memory pool size in MiB.
    pub fn guest_pool_mib(mut self, mib: u64) -> Self {
        self.config.machine.guest_pool_mib = mib;
        self
    }

    /// Sets the clone notification ring capacity.
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.config.machine.notification_ring_capacity = capacity;
        self
    }

    /// Selects the clone-interface multiplexer.
    pub fn mux(mut self, mux: MuxKind) -> Self {
        self.config.mux = mux;
        self
    }

    /// Sets the master PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Turns tracing on or off (see [`TraceConfig`]). `NEPHELE_TRACE`
    /// overrides it at runtime.
    pub fn tracing(mut self, tracing: TraceConfig) -> Self {
        self.config.tracing = tracing;
        self
    }

    /// Sets the directory flight-recorder dumps are written to.
    pub fn flightrec_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.flightrec_dir = dir.into();
        self
    }

    /// Enables or disables flight-recorder dump files
    /// (`NEPHELE_FLIGHTREC` overrides it).
    pub fn flightrec_dumps(mut self, dumps: bool) -> Self {
        self.config.flightrec_dumps = dumps;
        self
    }

    /// Pins the automatic-audit policy (overrides `NEPHELE_AUDIT`).
    pub fn audit(mut self, mode: AuditMode) -> Self {
        self.config.audit = Some(mode);
        self
    }

    /// Accepts a host worker-thread count and stores nothing: the
    /// platform runs on the calling thread. Kept only because the
    /// host-time benchmark (`hostbench/src/workloads/mod.rs`) calls
    /// `.threads(1)`.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> PlatformConfig {
        self.config
    }
}

/// A point-in-time view of the platform's introspection metrics, returned
/// by [`Platform::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformSnapshot {
    /// Free hypervisor-pool memory in bytes (Fig. 5 "Hyp free").
    pub hyp_free_bytes: u64,
    /// Free Dom0 memory in bytes (Fig. 5 "Dom0 free").
    pub dom0_free_bytes: u64,
    /// Machine frames currently owned by `dom_cow` — i.e. pages shared
    /// between a parent and its clones, counted once. Maintained
    /// incrementally by the frame table, so sampling it per clone is O(1).
    pub cow_shared_frames: u64,
    /// Machine frames owned by the hypervisor itself.
    pub xen_frames: u64,
    /// Packets the fabric has routed.
    pub packets_routed: u64,
    /// Number of members in the clone mux.
    pub mux_members: usize,
    /// Live domains, Dom0 included.
    pub domains: usize,
    /// Clones whose second stage completed.
    pub clones_completed: u64,
    /// Xenstore resident bytes attributable to entries structurally
    /// shared between clones (counted at every point of use). Falls as
    /// clones diverge and shared nodes are materialized.
    pub xs_shared_entry_bytes: u64,
    /// Xenstore resident bytes backed by unshared nodes. The two fields
    /// always sum to [`Xenstore::resident_bytes`], which stays the
    /// logical (sharing-agnostic) figure Fig. 5 plots.
    pub xs_unique_entry_bytes: u64,
    /// P2m resident bytes attributable to family base templates shared
    /// between clones (counted at every point of use, like the Xenstore
    /// split). Grows with fan-out: N clones of one parent reference one
    /// template N+1 times.
    pub p2m_shared_bytes: u64,
    /// P2m resident bytes private to a single domain: sole-owner
    /// templates plus every overlay entry. Grows as clones diverge
    /// through COW faults.
    pub p2m_unique_bytes: u64,
    /// Always 0: the platform models no block device. The field stays
    /// only because `hostbench`'s virtual-time digest folds it, and goes
    /// at the next change to `hostbench`.
    pub blk_shared_bytes: u64,
    /// Always 0, and kept for the same reason as the field above.
    pub blk_unique_bytes: u64,
}

struct GuestSlot {
    app: Box<dyn GuestApp>,
    heap: GuestHeap,
    stack: NetStack,
    devids: Vec<u32>,
}

/// The assembled platform.
pub struct Platform {
    /// The shared virtual clock.
    pub clock: Clock,
    /// The shared cost model.
    pub costs: Rc<CostModel>,
    /// The hypervisor.
    pub hv: Hypervisor,
    /// The Xenstore daemon.
    pub xs: Xenstore,
    /// The Dom0 device manager.
    pub dm: DeviceManager,
    /// The udev bus.
    pub udev: UdevBus,
    /// The toolstack.
    pub xl: Xl,
    /// The cloning daemon.
    pub daemon: Xencloned,
    /// The Dom0 memory model.
    pub dom0: Dom0Model,
    /// Deterministic PRNG for workloads.
    pub rng: SplitMix64,
    mux_ip: Option<Ipv4Addr>,
    host_stack: NetStack,
    host_events: Vec<SockEvent>,
    guests: HashMap<u32, GuestSlot>,
    packets_routed: u64,
    seed: u64,
    trace: TraceSink,
    flightrec: FlightRecorder,
    flightrec_dir: PathBuf,
    flightrec_dumps: bool,
    flightrec_dumped: Cell<bool>,
    audit_mode: AuditMode,
}

impl Platform {
    /// Boots the platform: hypervisor, Xenstore, device manager, toolstack
    /// and the `xencloned` daemon (cloning enabled globally).
    pub fn new(config: PlatformConfig) -> Self {
        let clock = Clock::new();
        let costs = Rc::new(config.costs);
        // `NEPHELE_TRACE` overrides the configured switch. Here and for
        // `NEPHELE_FLIGHTREC` and `NEPHELE_AUDIT` below, a value that is
        // not UTF-8 reaches the parser lossily converted, so it is
        // refused too.
        let tracing = std::env::var_os("NEPHELE_TRACE")
            .map_or_else(|| config.tracing.clone(), |v| parse_trace_env(&v.to_string_lossy()));
        let trace = TraceSink::new(clock.clone(), &tracing);
        let mut hv = Hypervisor::new(clock.clone(), costs.clone(), &config.machine);
        let mut xs = Xenstore::new(clock.clone(), costs.clone());
        let mut dm = DeviceManager::new(clock.clone(), costs.clone());
        let mut xl = Xl::new(clock.clone(), costs.clone());
        let mut daemon = Xencloned::new(clock.clone(), costs.clone());
        hv.attach_trace(trace.clone());
        xs.attach_trace(trace.clone());
        dm.attach_trace(trace.clone());
        xl.attach_trace(trace.clone());
        daemon.attach_trace(trace.clone());

        daemon.start(&mut hv).expect("daemon start on fresh hypervisor");

        match config.mux {
            MuxKind::None => {}
            MuxKind::Bond => dm.set_mux(Box::new(Bond::new())),
            MuxKind::Ovs => dm.set_mux(Box::new(SelectGroup::new())),
        }

        // `NEPHELE_FLIGHTREC` overrides the configured dump switch, either
        // way. The ring itself is always on.
        let flightrec_dumps = std::env::var_os("NEPHELE_FLIGHTREC")
            .map_or(config.flightrec_dumps, |v| parse_flightrec_env(&v.to_string_lossy()));
        let audit_mode = config
            .audit
            .or_else(|| {
                std::env::var_os("NEPHELE_AUDIT").map(|v| AuditMode::parse_env(&v.to_string_lossy()))
            })
            .unwrap_or_default();

        Platform {
            clock,
            costs,
            hv,
            xs,
            dm,
            udev: UdevBus::new(),
            xl,
            daemon,
            dom0: Dom0Model::default(),
            rng: SplitMix64::new(config.seed),
            mux_ip: None,
            host_stack: NetStack::new(HOST_MAC, HOST_IP),
            host_events: Vec::new(),
            guests: HashMap::new(),
            packets_routed: 0,
            seed: config.seed,
            trace,
            flightrec: FlightRecorder::default(),
            flightrec_dir: config.flightrec_dir,
            flightrec_dumps,
            flightrec_dumped: Cell::new(false),
            audit_mode,
        }
    }

    /// Borrows the platform's trace sink (disabled unless
    /// [`PlatformConfig::tracing`] enabled it). Components share this sink,
    /// so spans recorded by the hypervisor, Xenstore, devices, toolstack
    /// and daemon all land in the same buffer.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Borrows the always-on flight recorder: the last-N platform
    /// operations (op, domain, virtual timestamp, outcome), recorded at
    /// O(1) cost per event even with tracing off.
    pub fn flightrec(&self) -> &FlightRecorder {
        &self.flightrec
    }

    /// The master PRNG seed this platform was built with (also stamped
    /// into flight-recorder dump filenames).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    // ------------------------------------------------------------------
    // Observability exports
    // ------------------------------------------------------------------

    /// Per-clone-family rollup rows: the sink's span/counter/gauge
    /// attributions (see [`TraceSink::family_rows`]) plus point-in-time
    /// `resident.*` rows splitting the platform's resident bytes (p2m
    /// templates and Xenstore subtrees) across the live members of each
    /// family.
    pub fn family_rollup_rows(&self) -> Vec<FamilyRow> {
        let mut rows = self.trace.family_rows();
        if rows.is_empty() {
            return rows;
        }
        let names: BTreeMap<u32, String> =
            rows.iter().map(|r| (r.family, r.root_name.clone())).collect();
        let mut resident: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
        for (dom, s) in self.hv.p2m_sharing_by_dom() {
            let Some(root) = self.trace.family_root_of(dom) else { continue };
            *resident.entry((root, "resident.p2m_shared_bytes")).or_default() += s.shared_bytes;
            *resident.entry((root, "resident.p2m_unique_bytes")).or_default() += s.unique_bytes;
            *resident.entry((root, "resident.xs_entry_bytes")).or_default() +=
                self.xs.subtree_entry_bytes(&format!("/local/domain/{}", dom.0));
        }
        for ((family, metric), value) in resident {
            let Some(root_name) = names.get(&family) else { continue };
            rows.push(FamilyRow {
                family,
                root_name: root_name.clone(),
                metric: metric.to_string(),
                value,
            });
        }
        rows
    }

    /// [`family_rollup_rows`](Self::family_rollup_rows) rendered as
    /// `family,root,metric,value` CSV, sorted by `(family, metric)`.
    pub fn family_rollup_csv(&self) -> String {
        render_family_csv(self.family_rollup_rows())
    }

    /// Runs the state invariant auditor over the whole platform (frame
    /// table vs p2m back-references, incremental counters vs full scan,
    /// grants/channels/ring vs live domains, toolstack and Xenstore vs
    /// hypervisor state). Read-only; safe to call at any point.
    ///
    /// A dirty report also dumps the flight recorder (first failure only),
    /// so the black box ships alongside the violation list.
    pub fn audit(&self) -> AuditReport {
        let report = audit::run(self);
        if !report.is_clean() {
            self.flightrec.record(FlightEvent {
                op: "platform.audit",
                dom: 0,
                at_ns: self.clock.now().as_ns(),
                outcome: "fail",
                arg: report.violations.len() as u64,
            });
            self.dump_flightrec("audit-fail");
        }
        report
    }

    /// Flight-records the outcome of a platform operation; on error, dumps
    /// the recorder; on success, runs the automatic audit hook.
    fn note_op<T>(&mut self, op: &'static str, dom: DomId, arg: u64, r: Result<T>) -> Result<T> {
        self.flightrec.record(FlightEvent {
            op,
            dom: dom.0,
            at_ns: self.clock.now().as_ns(),
            outcome: if r.is_ok() { "ok" } else { "err" },
            arg,
        });
        match &r {
            Ok(_) => self.audit_after(op),
            Err(_) => self.dump_flightrec(op),
        }
        r
    }

    /// The automatic audit hook: runs per [`AuditMode`] and panics (after
    /// dumping the flight recorder, via [`Platform::audit`]) on the first
    /// violation, so a corrupted platform can't silently keep running.
    fn audit_after(&self, op: &'static str) {
        let lifecycle = matches!(
            op,
            "platform.clone" | "platform.fork" | "platform.stage2" | "platform.destroy"
        );
        let run = match self.audit_mode {
            AuditMode::Off => false,
            AuditMode::Lifecycle => cfg!(debug_assertions) && lifecycle,
            AuditMode::EveryOp => true,
        };
        if !run {
            return;
        }
        let report = self.audit();
        assert!(report.is_clean(), "nephele state audit failed after {op}:\n{report}");
    }

    /// Writes `flightrec-<context>-seed<seed>.json` into the configured
    /// dump directory. Only the first dump per platform is written, so the
    /// black box reflects the original failure, not the fallout. The seed
    /// in the name keeps concurrent differently-seeded runs from colliding
    /// on one file; if a dump with the same name but *different* contents
    /// already exists (a crashed earlier run, say), it is preserved and
    /// this dump is dropped with a note.
    fn dump_flightrec(&self, context: &str) {
        if !self.flightrec_dumps || self.flightrec_dumped.get() {
            return;
        }
        self.flightrec_dumped.set(true);
        let file = format!("flightrec-{}-seed{:x}.json", context.replace('.', "-"), self.seed);
        let path = self.flightrec_dir.join(file);
        let json = self.flightrec.to_json(context);
        if let Ok(existing) = std::fs::read_to_string(&path) {
            if existing != json {
                eprintln!(
                    "nephele: refusing to clobber differing flight-recorder dump {}",
                    path.display()
                );
                return;
            }
        }
        let write = || -> std::io::Result<()> {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(&path, &json)
        };
        if write().is_ok() {
            eprintln!("nephele: flight recorder dumped to {}", path.display());
        }
    }

    /// Records the memory gauges (free hypervisor pool and Dom0 memory)
    /// at the current virtual time. No-op when tracing is off.
    fn record_mem_gauges(&self) {
        if !self.trace.is_enabled() {
            return;
        }
        self.trace
            .gauge("mem.hyp_free_bytes", DomId::DOM0, self.hv.free_pages() * sim_core::PAGE_SIZE as u64);
        self.trace
            .gauge("mem.dom0_free_bytes", DomId::DOM0, self.dom0.free_bytes(&self.xs, &self.dm, &self.xl));
    }

    // ------------------------------------------------------------------
    // Domain lifecycle
    // ------------------------------------------------------------------

    /// Boots a domain with no application attached (pure instantiation, as
    /// in the Fig. 4 baseline measurements).
    pub fn launch_plain(&mut self, cfg: &DomainConfig, image: &KernelImage) -> Result<DomId> {
        let r = self.launch_plain_impl(cfg, image);
        let dom = DomId(r.as_ref().map(|d| d.0).unwrap_or(0));
        self.note_op("platform.launch", dom, 0, r)
    }

    fn launch_plain_impl(&mut self, cfg: &DomainConfig, image: &KernelImage) -> Result<DomId> {
        let span = self.trace.span("platform.launch");
        let created = self.create_and_register(cfg, image, None)?;
        span.dom(created.id);
        drop(span);
        self.record_mem_gauges();
        Ok(created.id)
    }

    /// Boots a domain running `app`; `on_boot` fires before this returns
    /// and the network is pumped to quiescence.
    pub fn launch(
        &mut self,
        cfg: &DomainConfig,
        image: &KernelImage,
        app: Box<dyn GuestApp>,
    ) -> Result<DomId> {
        let r = self.launch_impl(cfg, image, app);
        let dom = DomId(r.as_ref().map(|d| d.0).unwrap_or(0));
        self.note_op("platform.launch", dom, 0, r)
    }

    fn launch_impl(
        &mut self,
        cfg: &DomainConfig,
        image: &KernelImage,
        app: Box<dyn GuestApp>,
    ) -> Result<DomId> {
        let span = self.trace.span("platform.launch");
        let created = self.create_and_register(cfg, image, Some(app))?;
        let dom = created.id;
        span.dom(dom);
        self.dispatch(dom, |app, env| app.on_boot(env));
        self.pump();
        drop(span);
        self.record_mem_gauges();
        Ok(dom)
    }

    fn create_and_register(
        &mut self,
        cfg: &DomainConfig,
        image: &KernelImage,
        app: Option<Box<dyn GuestApp>>,
    ) -> Result<CreatedDomain> {
        let created = self
            .xl
            .create(&mut self.hv, &mut self.xs, &mut self.dm, &mut self.udev, cfg, image)?;
        let dom = created.id;
        for iface in &created.ifaces {
            self.dm.register_mac(*iface);
        }
        if let Some(app) = app {
            let ip = cfg.vifs.first().map(|v| v.ip).unwrap_or(Ipv4Addr::UNSPECIFIED);
            let mac = MacAddr::xen(dom.0, 0);
            let slot = GuestSlot {
                app,
                heap: GuestHeap::new(dom, created.layout.heap_start, created.layout.heap_pages),
                stack: NetStack::new(mac, ip),
                devids: (0..cfg.vifs.len() as u32).collect(),
            };
            self.guests.insert(dom.0, slot);
        }
        Ok(created)
    }

    /// Destroys a domain (guest slot included). The toolstack's device
    /// teardown also takes its vifs out of the clone mux and the bridge's
    /// MAC table.
    pub fn destroy(&mut self, dom: DomId) -> Result<()> {
        let r = self.destroy_impl(dom);
        self.note_op("platform.destroy", dom, 0, r)
    }

    fn destroy_impl(&mut self, dom: DomId) -> Result<()> {
        self.guests.remove(&dom.0);
        self.xl
            .destroy(&mut self.hv, &mut self.xs, &mut self.dm, &mut self.udev, dom)?;
        Ok(())
    }

    /// Clones `dom` from the outside (Dom0-triggered, as for VM fuzzing):
    /// runs both stages and returns the children.
    pub fn clone_domain(&mut self, dom: DomId, nr: u32) -> Result<Vec<DomId>> {
        let r = self.clone_domain_impl(dom, nr);
        self.note_op("platform.clone", dom, nr as u64, r)
    }

    fn clone_domain_impl(&mut self, dom: DomId, nr: u32) -> Result<Vec<DomId>> {
        let span = self.trace.span("platform.clone_domain");
        span.dom(dom);
        let r = self.hv.cloneop(
            DomId::DOM0,
            CloneOp::Clone {
                target: Some(dom),
                nr_clones: nr,
            },
        )?;
        let CloneOpResult::Cloned(children) = r else {
            return Ok(Vec::new());
        };
        self.finish_clones(dom)?;
        drop(span);
        self.record_mem_gauges();
        Ok(children)
    }

    /// Registers a parent vif in the clone mux (done for the family root so
    /// that parent and clones share the load, as in §6.1).
    pub fn enlist_in_mux(&mut self, dom: DomId) {
        let Some(v) = self.dm.vif(dom, 0) else { return };
        let (iface, ip) = (v.iface, v.ip);
        if self.dm.enslave(iface) {
            self.mux_ip = Some(ip);
        }
    }

    /// Runs the second stage for every queued clone notification,
    /// whichever parent queued it, and gives each new child a copy of its
    /// own parent's guest. `parent` is the domain the operation is
    /// recorded against. Exposed so experiments can time the two stages
    /// separately (the hypercall via [`Platform::hv`], then this).
    pub fn finish_pending_clones(&mut self, parent: DomId) -> Result<Vec<DomId>> {
        let r = self.finish_clones(parent);
        let nr = r.as_ref().map(|c| c.len() as u64).unwrap_or(0);
        self.note_op("platform.stage2", parent, nr, r)
    }

    /// Runs the second stage for all queued clone notifications and
    /// creates guest slots for the new children.
    fn finish_clones(&mut self, parent: DomId) -> Result<Vec<DomId>> {
        let completed = self.daemon.handle_pending(
            &mut self.hv,
            &mut self.xs,
            &mut self.dm,
            &mut self.udev,
            &mut self.xl,
        )?;
        if self.dm.mux().is_some() && !completed.is_empty() {
            if let Some(v) = self.dm.vif(parent, 0) {
                self.mux_ip = Some(v.ip);
            }
        }
        // Guests do not run during stage 2, so each parent's slot still
        // holds its state at the fork point.
        let mut children = Vec::new();
        for c in &completed {
            children.push(c.child);
            if let Some(s) = self.guests.get(&c.parent.0) {
                let mut heap = s.heap.clone();
                heap.rebind(c.child);
                let slot = GuestSlot {
                    app: s.app.boxed_clone(),
                    heap,
                    stack: s.stack.clone(),
                    devids: s.devids.clone(),
                };
                self.guests.insert(c.child.0, slot);
            }
        }
        Ok(children)
    }

    // ------------------------------------------------------------------
    // Guest dispatch and actions
    // ------------------------------------------------------------------

    fn dispatch(&mut self, dom: DomId, f: impl FnOnce(&mut dyn GuestApp, &mut GuestEnv)) {
        let Some(mut slot) = self.guests.remove(&dom.0) else {
            return;
        };
        let mut actions = Vec::new();
        {
            let mut env = GuestEnv {
                dom,
                now: self.clock.now(),
                hv: &mut self.hv,
                dm: &mut self.dm,
                heap: &mut slot.heap,
                stack: &mut slot.stack,
                actions: &mut actions,
            };
            f(slot.app.as_mut(), &mut env);
        }
        self.guests.insert(dom.0, slot);
        self.process_actions(dom, actions);
    }

    /// Runs `f` against the concrete application of `dom` (downcast to
    /// `T`), inside a full guest environment; deferred actions are
    /// processed and the network pumped afterwards. Returns `None` when the
    /// domain has no guest or its app is not a `T`.
    pub fn with_app<T: 'static, R>(
        &mut self,
        dom: DomId,
        f: impl FnOnce(&mut T, &mut GuestEnv) -> R,
    ) -> Option<R> {
        let mut slot = self.guests.remove(&dom.0)?;
        let mut actions = Vec::new();
        let result = {
            let mut env = GuestEnv {
                dom,
                now: self.clock.now(),
                hv: &mut self.hv,
                dm: &mut self.dm,
                heap: &mut slot.heap,
                stack: &mut slot.stack,
                actions: &mut actions,
            };
            slot.app.as_any_mut().downcast_mut::<T>().map(|t| f(t, &mut env))
        };
        self.guests.insert(dom.0, slot);
        if result.is_some() {
            self.process_actions(dom, actions);
            self.pump();
        }
        result
    }

    fn process_actions(&mut self, dom: DomId, actions: Vec<GuestAction>) {
        for a in actions {
            match a {
                GuestAction::Fork { nr } => {
                    // Errors surface through the fork outcome being absent;
                    // experiments check domain counts.
                    let _ = self.guest_fork(dom, nr);
                }
                GuestAction::Shutdown => {
                    let _ = self.destroy(dom);
                }
            }
        }
    }

    /// Executes a guest-initiated fork: the `CLONEOP` hypercall, second
    /// stage, guest-slot duplication and the `on_fork` callbacks in parent
    /// and children.
    pub fn guest_fork(&mut self, dom: DomId, nr: u32) -> Result<Vec<DomId>> {
        let r = self.guest_fork_impl(dom, nr);
        self.note_op("platform.fork", dom, nr as u64, r)
    }

    fn guest_fork_impl(&mut self, dom: DomId, nr: u32) -> Result<Vec<DomId>> {
        let span = self.trace.span("platform.guest_fork");
        span.dom(dom);
        let r = self.hv.cloneop(
            dom,
            CloneOp::Clone {
                target: None,
                nr_clones: nr,
            },
        )?;
        let CloneOpResult::Cloned(_) = r else {
            return Ok(Vec::new());
        };
        let children = self.finish_clones(dom)?;
        self.dispatch(dom, |app, env| {
            app.on_fork(
                env,
                ForkOutcome::Parent {
                    children: children.clone(),
                },
            )
        });
        for c in &children {
            self.dispatch(*c, |app, env| app.on_fork(env, ForkOutcome::Child { parent: dom }));
        }
        self.pump();
        drop(span);
        self.record_mem_gauges();
        Ok(children)
    }

    // ------------------------------------------------------------------
    // Network fabric
    // ------------------------------------------------------------------

    fn route_to_guest(&mut self, pkt: Packet) {
        self.clock.advance(self.costs.net_link_latency);
        self.packets_routed += 1;
        self.trace.count("net.packets_routed", 1);
        let iface = if self.mux_ip == Some(pkt.dst_ip) {
            self.dm
                .mux_select(&pkt)
                .or_else(|| self.dm.mac_target(&pkt.dst_mac))
        } else {
            self.dm.mac_target(&pkt.dst_mac)
        };
        if let Some(iface) = iface {
            self.dm.deliver_rx(iface, pkt);
        }
    }

    fn route_from_guest(&mut self, pkt: Packet) {
        self.clock.advance(self.costs.net_link_latency);
        self.packets_routed += 1;
        self.trace.count("net.packets_routed", 1);
        if pkt.dst_ip == HOST_IP {
            let replies = self.host_stack.handle_packet(&pkt);
            self.host_events.extend(self.host_stack.poll_events());
            for r in replies {
                self.route_to_guest(r);
            }
        } else {
            self.route_to_guest(pkt);
        }
    }

    /// Drives the platform to quiescence: drains vif TX rings, delivers RX
    /// packets into guest stacks, fires guest network callbacks, drains
    /// hypervisor events (IDC notifications, `VIRQ_CLONED`) — until no
    /// component makes progress.
    ///
    /// Each network phase visits only the vifs the device manager lists
    /// as pending, iterating a snapshot of that set taken when the phase
    /// starts. That snapshot holds exactly the vifs a walk over every
    /// live vif would find non-empty, in the same key order: routing in
    /// the TX phase can queue RX packets but never TX, guests in the RX
    /// phase can queue TX packets (`GuestEnv::transmit`) but never RX,
    /// and a nested pump from a guest fork drains everything before it
    /// returns. A round therefore costs O(vifs with queued packets ·
    /// log vifs), and virtual time is what the full walk produced.
    pub fn pump(&mut self) {
        for _round in 0..10_000 {
            let mut progress = false;

            // Guest → fabric.
            for (dom, devid) in self.dm.tx_pending() {
                for pkt in self.dm.take_tx(dom, devid) {
                    progress = true;
                    self.route_from_guest(pkt);
                }
            }

            // Fabric → guest stacks → app callbacks.
            for (dom, devid) in self.dm.rx_pending() {
                let pkts = self.dm.take_rx(dom, devid);
                if pkts.is_empty() {
                    continue;
                }
                progress = true;
                let Some(mut slot) = self.guests.remove(&dom.0) else {
                    continue;
                };
                let mut replies = Vec::new();
                for p in pkts {
                    replies.extend(slot.stack.handle_packet(&p));
                }
                let events = slot.stack.poll_events();
                self.guests.insert(dom.0, slot);
                for r in replies {
                    let _ = self.dm.guest_tx(dom, devid, r);
                }
                for e in events {
                    self.dispatch(dom, |app, env| app.on_net_event(env, e));
                }
            }

            // Hypervisor events.
            let events = self.hv.drain_events();
            for e in events {
                progress = true;
                self.route_hv_event(e);
            }

            if !progress {
                break;
            }
        }
    }

    /// Delivers a guest's IDC notification. Dom0's one event source is
    /// `VIRQ_CLONED`, and it dispatches nothing: every `CLONEOP` caller
    /// runs the second stage itself ([`Platform::finish_pending_clones`]).
    fn route_hv_event(&mut self, e: PendingEvent) {
        if !e.dom.is_dom0() {
            self.dispatch(e.dom, |app, env| app.on_idc_event(env, e.port));
        }
    }

    /// Advances virtual time by `d`, pumping before and after.
    pub fn run_for(&mut self, d: SimDuration) {
        let horizon = self.clock.now() + d;
        self.pump();
        self.clock.advance_to(horizon);
        self.pump();
        // Periodic audit from the sim loop (under `every-op` only; the
        // lifecycle hooks already cover clone/destroy in debug builds).
        if self.audit_mode == AuditMode::EveryOp {
            self.audit_after("platform.run_for");
        }
    }

    // ------------------------------------------------------------------
    // Host endpoint (Dom0-side load generation)
    // ------------------------------------------------------------------

    /// Sends a UDP datagram from the host endpoint to a guest. The source
    /// port is bound automatically so replies are received.
    pub fn host_udp_send(&mut self, dst_ip: Ipv4Addr, src_port: u16, dst_port: u16, payload: Vec<u8>) {
        self.host_stack.udp_bind(src_port);
        let pkt = self
            .host_stack
            .udp_send(MacAddr::BROADCAST, dst_ip, src_port, dst_port, payload);
        // Destination MAC resolution happens in the fabric (mux/mac table);
        // rewrite dst MAC to the target family's if known.
        let pkt = Packet {
            dst_mac: self
                .mac_for_ip(dst_ip)
                .unwrap_or(MacAddr::BROADCAST),
            ..pkt
        };
        self.route_to_guest(pkt);
        self.pump();
    }

    /// Opens a TCP connection from the host endpoint to `dst_ip:port`.
    pub fn host_tcp_connect(&mut self, dst_ip: Ipv4Addr, port: u16) -> ConnId {
        let mac = self.mac_for_ip(dst_ip).unwrap_or(MacAddr::BROADCAST);
        let (conn, syn) = self.host_stack.tcp_connect(mac, dst_ip, port);
        self.route_to_guest(syn);
        self.pump();
        self.host_events.extend(self.host_stack.poll_events());
        conn
    }

    /// Sends data on a host-side TCP connection.
    pub fn host_tcp_send(&mut self, conn: ConnId, data: Vec<u8>) {
        if let Some(pkt) = self.host_stack.tcp_send(conn, data) {
            self.route_to_guest(pkt);
            self.pump();
            self.host_events.extend(self.host_stack.poll_events());
        }
    }

    /// Closes a host-side TCP connection.
    pub fn host_tcp_close(&mut self, conn: ConnId) {
        if let Some(pkt) = self.host_stack.tcp_close(conn) {
            self.route_to_guest(pkt);
            self.pump();
        }
    }

    /// Drains the events the host endpoint observed (responses, closes).
    pub fn take_host_events(&mut self) -> Vec<SockEvent> {
        self.host_events.extend(self.host_stack.poll_events());
        std::mem::take(&mut self.host_events)
    }

    /// The MAC of the first vif, in `(domain, devid)` order, carrying
    /// `ip` (a clone family's members all share one). One index lookup.
    fn mac_for_ip(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.dm.vif_for_ip(ip).map(|v| v.mac)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Takes a point-in-time snapshot of the platform's introspection
    /// metrics.
    pub fn snapshot(&self) -> PlatformSnapshot {
        let mem = self.hv.memory_stats();
        let xs_sharing = self.xs.sharing();
        let p2m_sharing = self.hv.p2m_sharing();
        PlatformSnapshot {
            hyp_free_bytes: mem.free * sim_core::PAGE_SIZE as u64,
            dom0_free_bytes: self.dom0.free_bytes(&self.xs, &self.dm, &self.xl),
            cow_shared_frames: mem.cow_shared,
            xen_frames: mem.xen,
            packets_routed: self.packets_routed,
            mux_members: self.dm.mux().map_or(0, |m| m.member_count()),
            domains: self.hv.domain_count(),
            clones_completed: self.daemon.clones_completed(),
            xs_shared_entry_bytes: xs_sharing.shared_entry_bytes,
            xs_unique_entry_bytes: xs_sharing.unique_entry_bytes,
            p2m_shared_bytes: p2m_sharing.shared_bytes,
            p2m_unique_bytes: p2m_sharing.unique_bytes,
            blk_shared_bytes: 0,
            blk_unique_bytes: 0,
        }
    }

    /// Whether a guest slot exists for `dom`.
    pub fn has_guest(&self, dom: DomId) -> bool {
        self.guests.contains_key(&dom.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct UdpEcho {
        port: u16,
        seen: u32,
    }

    impl GuestApp for UdpEcho {
        fn boxed_clone(&self) -> Box<dyn GuestApp> {
            Box::new(self.clone())
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_boot(&mut self, env: &mut GuestEnv) {
            env.stack.udp_bind(self.port);
            env.console_log("udp echo up\n");
            env.udp_send_host(0, self.port, 9999, b"ready".to_vec());
        }
        fn on_net_event(&mut self, env: &mut GuestEnv, evt: SockEvent) {
            if let SockEvent::UdpData { src_ip, src_port, payload, .. } = evt {
                self.seen += 1;
                let reply = env.stack.udp_send(HOST_MAC, src_ip, self.port, src_port, payload);
                env.transmit(0, reply);
            }
        }
    }

    fn plat() -> Platform {
        Platform::new(PlatformConfig::small())
    }

    /// The message `parse` panics with on `value`.
    fn panic_message<T>(parse: fn(&str) -> T, value: &str) -> String {
        let payload = std::panic::catch_unwind(|| parse(value))
            .err()
            .unwrap_or_else(|| panic!("{value:?} was accepted"));
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn trace_env_accepts_two_spellings_each_way_and_refuses_the_rest() {
        for on in ["1", "on"] {
            assert_eq!(parse_trace_env(on), TraceConfig::aggregate());
        }
        for off in ["0", "off"] {
            assert_eq!(parse_trace_env(off), TraceConfig::default());
        }
        for bad in ["yes", "full", "aggregate", "ON", ""] {
            let msg = panic_message(parse_trace_env, bad);
            assert!(msg.starts_with("NEPHELE_TRACE=") && msg.contains("0, off, 1 or on"), "{msg}");
        }
    }

    #[test]
    fn flightrec_env_accepts_two_spellings_each_way_and_refuses_the_rest() {
        for on in ["1", "on"] {
            assert!(parse_flightrec_env(on));
        }
        for off in ["0", "off"] {
            assert!(!parse_flightrec_env(off));
        }
        let not_utf8 = String::from_utf8_lossy(b"o\xffn");
        for bad in ["false", "OFF", "no", "", &not_utf8] {
            let msg = panic_message(parse_flightrec_env, bad);
            let named = msg.starts_with("NEPHELE_FLIGHTREC=");
            assert!(named && msg.contains("0, off, 1 or on"), "{msg}");
        }
    }

    #[test]
    fn audit_env_accepts_its_spellings_and_refuses_the_rest() {
        for (value, mode) in [
            ("off", AuditMode::Off),
            ("0", AuditMode::Off),
            ("lifecycle", AuditMode::Lifecycle),
            ("debug", AuditMode::Lifecycle),
            ("every-op", AuditMode::EveryOp),
            ("every_op", AuditMode::EveryOp),
            ("all", AuditMode::EveryOp),
        ] {
            assert_eq!(AuditMode::parse_env(value), mode);
        }
        for bad in ["on", "everyop", "Lifecycle", ""] {
            let msg = panic_message(AuditMode::parse_env, bad);
            assert!(msg.starts_with("NEPHELE_AUDIT=") && msg.contains("every-op"), "{msg}");
        }
    }

    fn udp_cfg(name: &str, ip: Ipv4Addr) -> DomainConfig {
        DomainConfig::builder(name)
            .memory_mib(4)
            .vif(ip)
            .max_clones(32)
            .build()
    }

    #[test]
    fn boot_notification_reaches_host() {
        let mut p = plat();
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        p.host_stack.udp_bind(9999);
        p.launch(
            &udp_cfg("echo", ip),
            &KernelImage::minios("echo"),
            Box::new(UdpEcho { port: 7, seen: 0 }),
        )
        .unwrap();
        let evts = p.take_host_events();
        assert!(
            evts.iter().any(|e| matches!(
                e,
                SockEvent::UdpData { payload, .. } if payload == b"ready"
            )),
            "boot notification missing: {evts:?}"
        );
    }

    #[test]
    fn udp_echo_roundtrip() {
        let mut p = plat();
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        p.launch(
            &udp_cfg("echo", ip),
            &KernelImage::minios("echo"),
            Box::new(UdpEcho { port: 7, seen: 0 }),
        )
        .unwrap();
        p.take_host_events();
        p.host_udp_send(ip, 5555, 7, b"ping".to_vec());
        let evts = p.take_host_events();
        assert!(
            evts.iter().any(|e| matches!(
                e,
                SockEvent::UdpData { payload, src_port: 7, .. } if payload == b"ping"
            )),
            "echo missing: {evts:?}"
        );
    }

    #[derive(Clone)]
    struct Forker {
        is_child: bool,
        fork_done: bool,
    }

    impl GuestApp for Forker {
        fn boxed_clone(&self) -> Box<dyn GuestApp> {
            Box::new(self.clone())
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn on_boot(&mut self, env: &mut GuestEnv) {
            env.fork(2);
        }
        fn on_fork(&mut self, env: &mut GuestEnv, outcome: ForkOutcome) {
            self.fork_done = true;
            match outcome {
                ForkOutcome::Parent { children } => {
                    env.console_log(&format!("parent of {}\n", children.len()));
                }
                ForkOutcome::Child { .. } => {
                    self.is_child = true;
                    env.console_log("child alive\n");
                }
            }
        }
    }

    #[test]
    fn guest_initiated_fork_runs_both_stages() {
        let mut p = plat();
        let dom = p
            .launch(
                &udp_cfg("forker", Ipv4Addr::new(10, 0, 0, 3)),
                &KernelImage::minios("forker"),
                Box::new(Forker { is_child: false, fork_done: false }),
            )
            .unwrap();
        // on_boot requested fork(2); processed synchronously.
        assert_eq!(p.hv.domain(dom).unwrap().children.len(), 2);
        let kids: Vec<DomId> =
            p.hv.domain(dom)
                .unwrap()
                .children
                .values()
                .copied()
                .collect();
        for k in &kids {
            assert!(p.has_guest(*k), "child slot created");
            assert!(p.hv.domain(*k).unwrap().is_runnable());
            let out = p.dm.console_output(*k);
            assert_eq!(out, b"child alive\n", "child resumed from fork point");
        }
        let parent_out = p.dm.console_output(dom);
        assert!(parent_out.ends_with(b"parent of 2\n"));
        // Clone vifs were enslaved to the default bond.
        assert_eq!(p.snapshot().mux_members, 2);
    }

    #[test]
    fn cloned_udp_servers_receive_via_bond() {
        let mut p = plat();
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        let dom = p
            .launch(
                &udp_cfg("echo", ip),
                &KernelImage::minios("echo"),
                Box::new(UdpEcho { port: 7, seen: 0 }),
            )
            .unwrap();
        p.enlist_in_mux(dom);
        p.guest_fork(dom, 3).unwrap();
        assert_eq!(p.snapshot().mux_members, 4, "parent + 3 clones in the bond");
        p.take_host_events();
        // Spray flows; every one must be answered by exactly one clone.
        for port in 0..32u16 {
            p.host_udp_send(ip, 6000 + port, 7, format!("q{port}").into_bytes());
        }
        let replies = p
            .take_host_events()
            .into_iter()
            .filter(|e| matches!(e, SockEvent::UdpData { src_port: 7, .. }))
            .count();
        assert_eq!(replies, 32, "every flow answered despite identical MAC/IP");
    }

    /// A raw Dom0 `CLONEOP` raises `VIRQ_CLONED`, and the event loop
    /// drains it without running the second stage: only
    /// `finish_pending_clones` completes the child, and it gives the
    /// child a copy of its parent's guest.
    #[test]
    fn only_finish_pending_clones_completes_a_raw_cloneop() {
        let mut p = plat();
        let dom = p
            .launch(
                &udp_cfg("raw", Ipv4Addr::new(10, 0, 0, 4)),
                &KernelImage::minios("raw"),
                Box::new(UdpEcho { port: 7, seen: 0 }),
            )
            .unwrap();
        let op = CloneOp::Clone {
            target: Some(dom),
            nr_clones: 1,
        };
        let r = p.hv.cloneop(DomId::DOM0, op).unwrap();
        let CloneOpResult::Cloned(children) = r else {
            panic!("a Dom0 clone returns its children: {r:?}");
        };
        p.run_for(SimDuration::from_ms(10));
        assert_eq!(p.hv.clone_ring_len(), 1, "no second stage ran");
        assert!(!p.has_guest(children[0]));
        assert_eq!(p.finish_pending_clones(dom).unwrap(), children);
        let port = p.with_app::<UdpEcho, _>(children[0], |app, _| app.port);
        assert_eq!(port, Some(7), "the child runs a copy of its parent's app");
    }

    #[test]
    fn external_clone_via_dom0() {
        let mut p = plat();
        let dom = p
            .launch_plain(
                &udp_cfg("target", Ipv4Addr::new(10, 0, 0, 5)),
                &KernelImage::minios("target"),
            )
            .unwrap();
        let kids = p.clone_domain(dom, 1).unwrap();
        assert_eq!(kids.len(), 1);
        assert!(p.hv.domain_exists(kids[0]));
        assert!(p.xl.record(kids[0]).is_some());
    }

    #[test]
    fn memory_shrinks_with_clones_not_boots() {
        let mut p = plat();
        let img = KernelImage::minios("m");
        let d1 = p
            .launch_plain(&udp_cfg("m1", Ipv4Addr::new(10, 0, 0, 6)), &img)
            .unwrap();
        let free_before = p.snapshot().hyp_free_bytes;
        p.clone_domain(d1, 1).unwrap();
        let clone_cost = free_before - p.snapshot().hyp_free_bytes;
        let free_before2 = p.snapshot().hyp_free_bytes;
        p.launch_plain(&udp_cfg("m2", Ipv4Addr::new(10, 0, 0, 7)), &img)
            .unwrap();
        let boot_cost = free_before2 - p.snapshot().hyp_free_bytes;
        assert!(
            clone_cost * 2 < boot_cost,
            "clone ({clone_cost}) must use far less memory than boot ({boot_cost})"
        );
    }

    #[test]
    fn snapshot_exposes_cow_sharing() {
        let mut p = plat();
        let dom = p
            .launch_plain(
                &udp_cfg("shared", Ipv4Addr::new(10, 0, 0, 8)),
                &KernelImage::minios("shared"),
            )
            .unwrap();
        assert_eq!(p.snapshot().cow_shared_frames, 0, "no sharing before any clone");
        p.clone_domain(dom, 2).unwrap();
        let snap = p.snapshot();
        // Most of the 4 MiB guest's pages are shareable; both children
        // share the same set, counted once.
        assert!(
            snap.cow_shared_frames >= 500,
            "clones must share the parent's pages ({} cow frames)",
            snap.cow_shared_frames
        );
        assert_eq!(snap.xen_frames, 0);
    }

    #[test]
    fn snapshot_tracks_xenstore_sharing_through_divergence() {
        let mut p = plat();
        let dom = p
            .launch_plain(
                &udp_cfg("xsshare", Ipv4Addr::new(10, 0, 0, 9)),
                &KernelImage::minios("xsshare"),
            )
            .unwrap();
        let before = p.snapshot();
        assert_eq!(
            before.xs_shared_entry_bytes, 0,
            "nothing is structurally shared before any clone"
        );
        let kids = p.clone_domain(dom, 2).unwrap();
        let cloned = p.snapshot();
        assert!(
            cloned.xs_shared_entry_bytes > 0,
            "cloning must leave device subtrees structurally shared"
        );
        // The split is additive over the logical resident figure.
        assert_eq!(
            cloned.xs_shared_entry_bytes + cloned.xs_unique_entry_bytes,
            p.xs.resident_bytes()
        );
        // Diverge one clone: writing through its cloned vif frontend
        // materializes the write spine's shared nodes, moving bytes from
        // the shared column to the unique one.
        p.xs
            .write(
                sim_core::DomId::DOM0,
                &format!("/local/domain/{}/device/vif/0/state", kids[0].0),
                "5",
            )
            .unwrap();
        let diverged = p.snapshot();
        assert!(
            diverged.xs_shared_entry_bytes < cloned.xs_shared_entry_bytes
                && diverged.xs_unique_entry_bytes > cloned.xs_unique_entry_bytes,
            "divergence must move bytes shared -> unique (shared {} -> {}, unique {} -> {})",
            cloned.xs_shared_entry_bytes,
            diverged.xs_shared_entry_bytes,
            cloned.xs_unique_entry_bytes,
            diverged.xs_unique_entry_bytes
        );
        assert_eq!(
            diverged.xs_shared_entry_bytes + diverged.xs_unique_entry_bytes,
            p.xs.resident_bytes()
        );
        p.xs.audit_tree().unwrap();
    }

    #[test]
    fn family_rollup_includes_resident_rows_for_live_families() {
        let mut cfg = PlatformConfig::small();
        cfg.tracing = TraceConfig::aggregate();
        let mut p = Platform::new(cfg);
        let dom = p
            .launch_plain(
                &udp_cfg("rollup", Ipv4Addr::new(10, 0, 0, 12)),
                &KernelImage::minios("rollup"),
            )
            .unwrap();
        p.clone_domain(dom, 2).unwrap();
        let csv = p.family_rollup_csv();
        let family = p.trace().family_root_of(dom).unwrap();
        for metric in [
            "members_total,3",
            "members_live,3",
            "resident.p2m_shared_bytes",
            "resident.p2m_unique_bytes",
            "resident.xs_entry_bytes",
        ] {
            assert!(
                csv.contains(&format!("{family},rollup,{metric}")),
                "missing {metric} row in:\n{csv}"
            );
        }
        // The resident p2m split sums to the platform-wide snapshot.
        let snap = p.snapshot();
        let sum_metric = |name: &str| -> u64 {
            csv.lines()
                .filter(|l| l.contains(name))
                .map(|l| l.rsplit(',').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(sum_metric("resident.p2m_shared_bytes"), snap.p2m_shared_bytes);
        assert_eq!(sum_metric("resident.p2m_unique_bytes"), snap.p2m_unique_bytes);
        // Timeline and exposition exports are non-empty with tracing on.
        assert!(p.trace().timeline_csv().lines().count() > 1, "timeline has rows");
        assert!(p.trace().metrics_text().contains("nephele_"), "exposition has metrics");
    }

    #[test]
    fn flightrec_dump_names_carry_the_seed_and_refuse_clobber() {
        let dir = std::path::PathBuf::from("target/test-flightrec-seed");
        let _ = std::fs::remove_dir_all(&dir);
        let build = |seed: u64| {
            Platform::new(
                PlatformConfig::builder()
                    .guest_pool_mib(64)
                    .ring_capacity(32)
                    .seed(seed)
                    .flightrec_dir(&dir)
                    .build(),
            )
        };
        // Destroying a nonexistent domain is an error, which dumps.
        let mut p = build(0xABC);
        let _ = p.destroy(DomId(42));
        let path = dir.join("flightrec-platform-destroy-seedabc.json");
        assert!(path.exists(), "dump named with the seed");
        let original = std::fs::read_to_string(&path).unwrap();
        // A different same-seed run whose ring differs must not clobber it.
        let mut p2 = build(0xABC);
        let _ = p2.launch_plain(
            &udp_cfg("extra", Ipv4Addr::new(10, 0, 0, 13)),
            &KernelImage::minios("extra"),
        );
        let _ = p2.destroy(DomId(42));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            original,
            "differing dump must not overwrite the original"
        );
        // A different seed lands in its own file.
        let mut p3 = build(0xDEF);
        let _ = p3.destroy(DomId(42));
        assert!(dir.join("flightrec-platform-destroy-seeddef.json").exists());
    }

    #[test]
    fn snapshot_tracks_p2m_template_sharing_through_divergence() {
        use hypervisor::p2m::{BASE_SLOT_BYTES, OVERLAY_ENTRY_BYTES};

        let mut p = plat();
        let dom = p
            .launch_plain(
                &udp_cfg("p2mshare", Ipv4Addr::new(10, 0, 0, 11)),
                &KernelImage::minios("p2mshare"),
            )
            .unwrap();
        let before = p.snapshot();
        assert_eq!(
            before.p2m_shared_bytes, 0,
            "every template has a sole owner before cloning"
        );
        assert!(before.p2m_unique_bytes > 0, "templates always cost something");

        let kids = p.clone_domain(dom, 2).unwrap();
        let tmpl_bytes = p.hv.domain(dom).unwrap().p2m.base_len() as u64 * BASE_SLOT_BYTES;
        let cloned = p.snapshot();
        // The parent and both clones reference one template; the shared
        // column counts it at every point of use.
        assert_eq!(
            cloned.p2m_shared_bytes,
            3 * tmpl_bytes,
            "one family template, three referencing domains"
        );
        // Diverge one clone: a COW fault re-points a slot through the
        // overlay, growing the private column by exactly one entry while
        // the template stays shared.
        p.hv.write_page(kids[0], sim_core::Pfn(3), 0, &[7]).unwrap();
        let diverged = p.snapshot();
        assert_eq!(diverged.p2m_shared_bytes, cloned.p2m_shared_bytes);
        assert_eq!(
            diverged.p2m_unique_bytes,
            cloned.p2m_unique_bytes + OVERLAY_ENTRY_BYTES,
            "a fault costs one overlay entry"
        );
        // When the family dies the template has a sole owner again.
        for k in kids {
            p.destroy(k).unwrap();
        }
        assert_eq!(p.snapshot().p2m_shared_bytes, 0, "sole ownership after the family dies");
    }
}
