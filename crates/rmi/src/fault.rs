//! Pluggable fault injection: a [`Transport`] wrapper driven by a
//! deterministic, seedable [`FaultPlan`].
//!
//! The paper's debugging story (§4.2 — telnet into the bootstrap port) is
//! about keeping the ORB observable under real deployment conditions; this
//! module is the complementary *chaos* story: any transport can be wrapped
//! in a [`FaultInjector`] that drops connections, delays or truncates
//! frames, corrupts bytes, or refuses connects — according to a scripted,
//! seeded plan, so every failure a test provokes is reproducible.
//!
//! Client side, install a [`FaultyConnector`] via
//! `Orb::builder().connector(...)`; every outbound connection is then
//! wrapped. Server side, set the `HEIDL_FAULT_PLAN` environment variable
//! (see [`FaultPlan::parse`] for the grammar) and every accepted
//! connection — including those of `heidlc`-generated demo servers — is
//! wrapped automatically.
//!
//! # Plan grammar
//!
//! `HEIDL_FAULT_PLAN` and [`FaultPlan::parse`] accept `;`-separated
//! entries:
//!
//! ```text
//! seed=42; connect:refuse@2; send:delay=15; recv:drop@p=0.1; send:truncate=5@ep=127.0.0.1:9000
//! ```
//!
//! Each fault entry is `op:fault[@trigger][@ep=host:port]` where
//! `op ∈ {connect, send, recv}`, `fault ∈ {refuse, drop, corrupt,
//! delay=<ms>, truncate=<bytes>}` and `trigger` is either `<n>` (fire on
//! the n-th matching operation, 1-based) or `p=<probability>` (fire with
//! that probability, drawn from the seeded generator). Without a trigger
//! the rule always fires; without `ep=` it applies to every peer.

use crate::objref::Endpoint;
use crate::transport::{Connector, Transport};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// The transport operation a fault rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Opening a connection (only meaningful with [`Fault::RefuseConnect`]
    /// or [`Fault::Delay`]).
    Connect,
    /// Writing a frame.
    Send,
    /// Reading bytes.
    Recv,
}

/// What the injector does when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the connect with `ConnectionRefused`.
    RefuseConnect,
    /// Tear the connection down: the operation fails (sends) or reports
    /// end-of-stream (reads), and the underlying stream is shut down.
    DropConnection,
    /// Sleep this long, then perform the operation normally.
    Delay(Duration),
    /// Write only the first N bytes of the frame, then shut the stream
    /// down — the peer sees a truncated frame followed by EOF.
    Truncate(usize),
    /// Flip a bit in the middle of the payload before delivering it.
    CorruptFrame,
}

/// When a matching rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every matching operation.
    Always,
    /// Only the n-th matching operation (1-based).
    Nth(u64),
    /// Each matching operation independently, with this probability
    /// (drawn from the plan's seeded generator — deterministic for a
    /// fixed seed and operation sequence).
    Probability(f64),
}

/// One scripted fault.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Which operation kind the rule watches.
    pub op: FaultOp,
    /// What happens when it fires.
    pub fault: Fault,
    /// When it fires.
    pub trigger: Trigger,
    /// Restrict to one peer (`host:port` as produced by
    /// [`Endpoint::socket_addr`]); `None` matches every peer.
    pub endpoint: Option<String>,
}

impl FaultRule {
    /// A rule that always fires on `op` against every peer.
    pub fn always(op: FaultOp, fault: Fault) -> FaultRule {
        FaultRule { op, fault, trigger: Trigger::Always, endpoint: None }
    }

    /// Restricts the rule to one peer (`host:port`).
    pub fn at(mut self, endpoint: impl Into<String>) -> FaultRule {
        self.endpoint = Some(endpoint.into());
        self
    }

    /// Sets the trigger.
    pub fn when(mut self, trigger: Trigger) -> FaultRule {
        self.trigger = trigger;
        self
    }
}

struct RuleState {
    rule: FaultRule,
    /// Operations that matched this rule's op + endpoint filter so far.
    matched: u64,
}

struct PlanInner {
    rules: Vec<RuleState>,
    rng: StdRng,
    /// Every operation observed, keyed by (op, peer) — lets tests assert
    /// e.g. "no socket connect happened while the breaker was open".
    observed: HashMap<(FaultOp, String), u64>,
}

/// A deterministic, seedable script of faults, shared by every
/// [`FaultInjector`] and [`FaultyConnector`] built from it.
///
/// Rules can be added and [cleared](FaultPlan::clear) at runtime, so a
/// test can fault an endpoint, watch the breaker open, then lift the
/// fault and watch a half-open probe restore service.
pub struct FaultPlan {
    seed: u64,
    inner: Mutex<PlanInner>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rules", &inner.rules.len())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan; `seed` drives probabilistic triggers.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            inner: Mutex::new(PlanInner {
                rules: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                observed: HashMap::new(),
            }),
        }
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Appends a rule. Earlier rules win when several would fire on the
    /// same operation.
    pub fn add_rule(&self, rule: FaultRule) {
        self.inner.lock().rules.push(RuleState { rule, matched: 0 });
    }

    /// Removes every rule — "the fault clears". Observation counters and
    /// the random stream are kept.
    pub fn clear(&self) {
        self.inner.lock().rules.clear();
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.inner.lock().rules.len()
    }

    /// How many operations of `op` were attempted against `peer`
    /// (`host:port`), whether or not any fault fired.
    pub fn op_count(&self, op: FaultOp, peer: &str) -> u64 {
        self.inner.lock().observed.get(&(op, peer.to_owned())).copied().unwrap_or(0)
    }

    /// Consults the script for one operation. Increments counters and
    /// returns the fault to apply, if any.
    pub fn decide(&self, op: FaultOp, peer: &str) -> Option<Fault> {
        let mut inner = self.inner.lock();
        *inner.observed.entry((op, peer.to_owned())).or_insert(0) += 1;
        // Split-borrow rules vs rng: walk indices.
        for i in 0..inner.rules.len() {
            let matches = {
                let rs = &inner.rules[i];
                rs.rule.op == op && rs.rule.endpoint.as_deref().is_none_or(|e| e == peer)
            };
            if !matches {
                continue;
            }
            inner.rules[i].matched += 1;
            let (trigger, fault, matched) = {
                let rs = &inner.rules[i];
                (rs.rule.trigger, rs.rule.fault, rs.matched)
            };
            let fires = match trigger {
                Trigger::Always => true,
                Trigger::Nth(n) => matched == n,
                Trigger::Probability(p) => inner.rng.gen::<f64>() < p,
            };
            if fires {
                return Some(fault);
            }
        }
        None
    }

    /// Builds a plan from the `HEIDL_FAULT_PLAN` environment variable.
    /// Returns `None` when unset; a malformed spec is reported as a
    /// `Warn`-level [trace event](crate::trace) (stderr by default) and
    /// ignored (a demo server should start, not crash).
    pub fn from_env() -> Option<Arc<FaultPlan>> {
        let spec = std::env::var("HEIDL_FAULT_PLAN").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(Arc::new(plan)),
            Err(e) => {
                crate::trace::emit_with(crate::trace::TraceLevel::Warn, "fault", || {
                    format!("ignoring malformed HEIDL_FAULT_PLAN: {e}")
                });
                None
            }
        }
    }

    /// Parses the plan grammar described in the [module docs](self).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for raw in spec.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(v) = entry.strip_prefix("seed=") {
                seed = v.trim().parse().map_err(|e| format!("bad seed `{v}`: {e}"))?;
                continue;
            }
            rules.push(parse_rule(entry)?);
        }
        let plan = FaultPlan::new(seed);
        for r in rules {
            plan.add_rule(r);
        }
        Ok(plan)
    }
}

fn parse_rule(entry: &str) -> Result<FaultRule, String> {
    let mut at_parts = entry.split('@');
    let head = at_parts.next().unwrap_or_default();
    let (op_text, fault_text) =
        head.split_once(':').ok_or_else(|| format!("`{entry}`: expected op:fault"))?;
    let op = match op_text.trim() {
        "connect" => FaultOp::Connect,
        "send" => FaultOp::Send,
        "recv" => FaultOp::Recv,
        other => return Err(format!("`{entry}`: unknown op `{other}`")),
    };
    let fault = match fault_text.trim() {
        "refuse" => Fault::RefuseConnect,
        "drop" => Fault::DropConnection,
        "corrupt" => Fault::CorruptFrame,
        other => {
            if let Some(ms) = other.strip_prefix("delay=") {
                let ms: u64 = ms.parse().map_err(|e| format!("`{entry}`: bad delay: {e}"))?;
                Fault::Delay(Duration::from_millis(ms))
            } else if let Some(n) = other.strip_prefix("truncate=") {
                let n: usize = n.parse().map_err(|e| format!("`{entry}`: bad truncate: {e}"))?;
                Fault::Truncate(n)
            } else {
                return Err(format!("`{entry}`: unknown fault `{other}`"));
            }
        }
    };
    let mut rule = FaultRule::always(op, fault);
    for modifier in at_parts {
        let m = modifier.trim();
        if let Some(ep) = m.strip_prefix("ep=") {
            rule = rule.at(ep);
        } else if let Some(p) = m.strip_prefix("p=") {
            let p: f64 = p.parse().map_err(|e| format!("`{entry}`: bad probability: {e}"))?;
            rule = rule.when(Trigger::Probability(p));
        } else {
            let n: u64 = m.parse().map_err(|_| format!("`{entry}`: bad trigger `{m}`"))?;
            rule = rule.when(Trigger::Nth(n));
        }
    }
    Ok(rule)
}

/// Flips one bit near the middle of the buffer (deterministic).
fn corrupt(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let mid = out.len() / 2;
        out[mid] ^= 0x01;
    }
    out
}

/// A [`Transport`] decorator that applies a [`FaultPlan`] to every
/// operation.
pub struct FaultInjector {
    inner: Box<dyn Transport>,
    plan: Arc<FaultPlan>,
    /// Peer label used for rule matching (`host:port` for outbound
    /// connections, the transport's peer description otherwise).
    label: String,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector").field("label", &self.label).finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Wraps `inner`; `label` is matched against rules' endpoint filters.
    pub fn wrap(
        inner: Box<dyn Transport>,
        plan: Arc<FaultPlan>,
        label: impl Into<String>,
    ) -> FaultInjector {
        FaultInjector { inner, plan, label: label.into() }
    }

    /// The plan's say on a read that appended `n` bytes to `buf` past
    /// `before`: the count the reader gets. The plan decides once per
    /// read that returned, after it returned (a nonblocking read that
    /// found nothing is no operation).
    fn received(&mut self, buf: &mut Vec<u8>, before: usize, n: usize) -> usize {
        match self.plan.decide(FaultOp::Recv, &self.label) {
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            Some(Fault::DropConnection | Fault::Truncate(_)) => {
                // The reader observes an abrupt end-of-stream.
                buf.truncate(before);
                self.inner.shutdown();
                return 0;
            }
            Some(Fault::CorruptFrame) if n > 0 => buf[before + n / 2] ^= 0x01,
            _ => {}
        }
        n
    }
}

impl Transport for FaultInjector {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.plan.decide(FaultOp::Send, &self.label) {
            None | Some(Fault::RefuseConnect) => self.inner.send(bytes),
            Some(Fault::Delay(d)) => {
                std::thread::sleep(d);
                self.inner.send(bytes)
            }
            Some(Fault::DropConnection) => {
                self.inner.shutdown();
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected connection drop"))
            }
            Some(Fault::Truncate(n)) => {
                // The faulted side believes the write succeeded; the peer
                // sees a partial frame, then end-of-stream.
                let n = n.min(bytes.len());
                let result = self.inner.send(&bytes[..n]);
                self.inner.shutdown();
                result
            }
            Some(Fault::CorruptFrame) => self.inner.send(&corrupt(bytes)),
        }
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let before = buf.len();
        let n = self.inner.recv_into(buf)?;
        Ok(self.received(buf, before, n))
    }

    fn try_recv_into(&mut self, buf: &mut Vec<u8>, max: usize) -> io::Result<Option<usize>> {
        let before = buf.len();
        let n = self.inner.try_recv_into(buf, max)?;
        Ok(n.map(|n| self.received(buf, before, n)))
    }

    fn wait_readable(&mut self, timeout: Duration) -> io::Result<bool> {
        self.inner.wait_readable(timeout)
    }

    fn peer(&self) -> String {
        format!("faulty({})", self.inner.peer())
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn Transport>, Box<dyn Transport>)> {
        let (w, r) = self.inner.split()?;
        let writer =
            FaultInjector { inner: w, plan: Arc::clone(&self.plan), label: self.label.clone() };
        let reader = FaultInjector { inner: r, plan: self.plan, label: self.label };
        Ok((Box::new(writer), Box::new(reader)))
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// A [`Connector`] decorator: refuses or delays connects per the plan and
/// wraps every produced transport in a [`FaultInjector`].
pub struct FaultyConnector {
    inner: Arc<dyn Connector>,
    plan: Arc<FaultPlan>,
}

impl std::fmt::Debug for FaultyConnector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyConnector").field("plan", &self.plan).finish_non_exhaustive()
    }
}

impl FaultyConnector {
    /// Wraps an arbitrary connector.
    pub fn new(inner: Arc<dyn Connector>, plan: Arc<FaultPlan>) -> FaultyConnector {
        FaultyConnector { inner, plan }
    }

    /// Wraps the default TCP connector.
    pub fn over_tcp(plan: Arc<FaultPlan>) -> FaultyConnector {
        FaultyConnector::new(Arc::new(crate::transport::TcpConnector), plan)
    }

    /// The shared plan (for runtime rule changes and counters).
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl Connector for FaultyConnector {
    fn connect(&self, endpoint: &Endpoint) -> io::Result<Box<dyn Transport>> {
        let label = endpoint.socket_addr();
        match self.plan.decide(FaultOp::Connect, &label) {
            Some(Fault::RefuseConnect) | Some(Fault::DropConnection) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "injected connection refusal",
                ));
            }
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
        let inner = self.inner.connect(endpoint)?;
        Ok(Box::new(FaultInjector::wrap(inner, Arc::clone(&self.plan), label)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::new(1);
        plan.add_rule(
            FaultRule::always(FaultOp::Send, Fault::DropConnection).when(Trigger::Nth(2)),
        );
        assert_eq!(plan.decide(FaultOp::Send, "h:1"), None);
        assert_eq!(plan.decide(FaultOp::Send, "h:1"), Some(Fault::DropConnection));
        assert_eq!(plan.decide(FaultOp::Send, "h:1"), None);
        assert_eq!(plan.op_count(FaultOp::Send, "h:1"), 3);
    }

    #[test]
    fn endpoint_filter_scopes_the_rule() {
        let plan = FaultPlan::new(1);
        plan.add_rule(FaultRule::always(FaultOp::Send, Fault::DropConnection).at("h:1"));
        assert_eq!(plan.decide(FaultOp::Send, "h:2"), None);
        assert_eq!(plan.decide(FaultOp::Send, "h:1"), Some(Fault::DropConnection));
        // Ops on the unmatched peer still count.
        assert_eq!(plan.op_count(FaultOp::Send, "h:2"), 1);
    }

    #[test]
    fn probability_trigger_is_deterministic_per_seed() {
        let sequence = |seed| {
            let plan = FaultPlan::new(seed);
            plan.add_rule(
                FaultRule::always(FaultOp::Recv, Fault::DropConnection)
                    .when(Trigger::Probability(0.5)),
            );
            (0..64).map(|_| plan.decide(FaultOp::Recv, "h:1").is_some()).collect::<Vec<_>>()
        };
        assert_eq!(sequence(7), sequence(7), "same seed, same fault sequence");
        assert_ne!(sequence(7), sequence(8), "different seed, different sequence");
        let fired = sequence(7).iter().filter(|f| **f).count();
        assert!(fired > 10 && fired < 54, "roughly half fire: {fired}");
    }

    #[test]
    fn clear_lifts_all_faults() {
        let plan = FaultPlan::new(1);
        plan.add_rule(FaultRule::always(FaultOp::Send, Fault::DropConnection));
        assert!(plan.decide(FaultOp::Send, "h:1").is_some());
        plan.clear();
        assert_eq!(plan.rule_count(), 0);
        assert_eq!(plan.decide(FaultOp::Send, "h:1"), None);
    }

    #[test]
    fn parse_round_trips_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "seed=42; connect:refuse@2; send:delay=15; recv:drop@p=0.25; \
             send:truncate=5@ep=127.0.0.1:9000; recv:corrupt",
        )
        .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rule_count(), 5);
        // connect:refuse@2 → second connect refused.
        assert_eq!(plan.decide(FaultOp::Connect, "a:1"), None);
        assert_eq!(plan.decide(FaultOp::Connect, "a:1"), Some(Fault::RefuseConnect));
        // send rules: delay always fires first (rule order wins).
        assert_eq!(
            plan.decide(FaultOp::Send, "127.0.0.1:9000"),
            Some(Fault::Delay(Duration::from_millis(15)))
        );
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in
            ["sendd:drop", "send:explode", "send:delay=abc", "send:drop@x=1", "seed=notanumber"]
        {
            assert!(FaultPlan::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn injector_drop_fault_breaks_the_stream() {
        let plan = Arc::new(FaultPlan::new(0));
        plan.add_rule(
            FaultRule::always(FaultOp::Send, Fault::DropConnection).when(Trigger::Nth(2)),
        );
        let (a, mut b) = InProcTransport::pair();
        let mut faulty = FaultInjector::wrap(Box::new(a), plan, "peer:1");
        faulty.send(b"one").unwrap();
        let err = faulty.send(b"two").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let mut buf = Vec::new();
        assert_eq!(b.recv_into(&mut buf).unwrap(), 3);
        assert_eq!(buf, b"one");
        assert_eq!(b.recv_into(&mut buf).unwrap(), 0, "stream torn down after the drop");
    }

    #[test]
    fn injector_truncate_delivers_a_partial_frame_then_eof() {
        let plan = Arc::new(FaultPlan::new(0));
        plan.add_rule(FaultRule::always(FaultOp::Send, Fault::Truncate(4)));
        let (a, mut b) = InProcTransport::pair();
        let mut faulty = FaultInjector::wrap(Box::new(a), plan, "peer:1");
        faulty.send(b"truncated payload").unwrap();
        let mut buf = Vec::new();
        assert_eq!(b.recv_into(&mut buf).unwrap(), 4);
        assert_eq!(buf, b"trun");
        assert_eq!(b.recv_into(&mut buf).unwrap(), 0);
    }

    #[test]
    fn injector_corrupt_flips_one_bit() {
        let plan = Arc::new(FaultPlan::new(0));
        plan.add_rule(FaultRule::always(FaultOp::Send, Fault::CorruptFrame));
        let (a, mut b) = InProcTransport::pair();
        let mut faulty = FaultInjector::wrap(Box::new(a), plan, "peer:1");
        faulty.send(b"abcd").unwrap();
        let mut buf = Vec::new();
        b.recv_into(&mut buf).unwrap();
        assert_eq!(buf, b"abbd", "middle byte's low bit flipped");
    }
}
