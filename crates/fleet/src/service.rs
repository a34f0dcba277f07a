//! The long-running fleet service.
//!
//! [`FleetService`] is the stateful core `fleetd` wraps: clients submit
//! wake-condition programs over the wire API, the service runs every
//! submission through the optimizing compiler's suite pass
//! ([`sidewinder_opt::optimize_suite`]) on ingest — optimizing each
//! program and deduplicating structural twins — and serves the fleet
//! with the fused join of the surviving unique conditions. Rollup
//! queries run the fleet (lazily, cached until the served program set
//! changes) and return the deterministic [`FleetRollup`] as JSON.

use sidewinder_cert::{certify_program, diagnostics, CertTarget, Precision};
use sidewinder_hub::runtime::ChannelRates;
use sidewinder_ir::Program;
use sidewinder_opt::{optimize_suite, OptOptions, SuiteResult};

use crate::rollup::FleetRollup;
use crate::shard::{run_fleet, FleetConfig};
use crate::wire::{
    decode_message, decode_submit, encode_message, encode_submit_ack, MessageType, SubmitAck,
    WireError,
};

/// A service-level failure (wire fault or empty service).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request could not be decoded or admitted.
    Wire(WireError),
    /// A rollup was requested before any condition was submitted.
    NothingSubmitted,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Wire(e) => write!(f, "{e}"),
            ServiceError::NothingSubmitted => {
                write!(f, "no wake condition submitted yet; nothing to run")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

/// The fleet simulation service: ingest, optimize, dedup, run, report.
#[derive(Debug)]
pub struct FleetService {
    config: FleetConfig,
    workers: usize,
    cert_target: CertTarget,
    submissions: Vec<Program>,
    suite: Option<SuiteResult>,
    rollup: Option<FleetRollup>,
}

/// Arena capacity the fleet certifies against by default: the
/// 16k-element core class the audio fixtures (music/phrase) require,
/// matching the big core the conformance suites run fused suites on.
pub const FLEET_CERT_ARENA: usize = 16 * 1024;

impl FleetService {
    /// A service over `config`, initially serving nothing.
    pub fn new(config: FleetConfig) -> FleetService {
        FleetService {
            config,
            workers: 1,
            cert_target: CertTarget {
                mcu: None,
                cap: FLEET_CERT_ARENA,
            },
            submissions: Vec::new(),
            suite: None,
            rollup: None,
        }
    }

    /// Sets the worker-thread count used for fleet runs.
    pub fn with_workers(mut self, workers: usize) -> FleetService {
        self.workers = workers.max(1);
        self
    }

    /// Sets the core the ingest gate certifies fused suites against.
    pub fn with_cert_target(mut self, target: CertTarget) -> FleetService {
        self.cert_target = target;
        self
    }

    /// The core the ingest gate certifies fused suites against.
    pub fn cert_target(&self) -> &CertTarget {
        &self.cert_target
    }

    /// The fleet configuration being served.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Conditions submitted so far, in arrival order.
    pub fn submissions(&self) -> &[Program] {
        &self.submissions
    }

    /// The fused program the fleet executes, if any conditions are in.
    pub fn served_program(&self) -> Option<Program> {
        self.suite.as_ref().and_then(|s| s.fused())
    }

    /// Ingests one already-decoded program: validate, re-optimize the
    /// whole suite, dedup, certify the fused suite against the
    /// configured core, and describe where the submission landed.
    ///
    /// The certificate gate is transactional: a submission whose fused
    /// suite cannot be served — it does not compile to a hub image (more
    /// than [`MAX_NODES`](sidewinder_hub::MAX_NODES) nodes, say),
    /// certifiably overflows the configured arena capacity, or misses its
    /// deadline on a pinned MCU — is rolled back, and the previously
    /// served set keeps running untouched. Every served program carries
    /// a certificate.
    ///
    /// # Errors
    ///
    /// [`WireError::Invalid`] when the program fails validation or the
    /// certificate gate rejects the fused suite; the service's served
    /// set is unchanged.
    pub fn submit_program(&mut self, program: Program) -> Result<SubmitAck, WireError> {
        program
            .validate_located()
            .map_err(|e| WireError::Invalid(format!("{e}")))?;
        let unique_before = self.suite.as_ref().map_or(0, |s| s.unique.len());
        self.submissions.push(program);
        let suite = optimize_suite(
            &self.submissions,
            &ChannelRates::default(),
            &OptOptions::default(),
        );
        let cert_digest = match self.certify_fused(&suite) {
            Ok(digest) => digest,
            Err(reason) => {
                // Roll back: the rejected condition never joins the set.
                self.submissions.pop();
                return Err(WireError::Invalid(reason));
            }
        };
        let condition_id = self.submissions.len() - 1;
        let unique_index = suite.assignment[condition_id];
        let ack = SubmitAck {
            condition_id: condition_id as u32,
            unique_index: unique_index as u32,
            deduplicated: suite.unique.len() == unique_before,
            active_unique: suite.unique.len() as u32,
            program_digest: suite.unique[unique_index].stable_digest(),
            cert_digest,
        };
        self.suite = Some(suite);
        self.rollup = None; // the served program changed
        Ok(ack)
    }

    /// Certifies the suite's fused program against the configured core
    /// and returns the certificate digest. Rejections say why: the
    /// compile error, or the certifier's SW008/SW009 diagnostics.
    fn certify_fused(&self, suite: &SuiteResult) -> Result<u64, String> {
        let fused = suite
            .fused()
            .ok_or_else(|| "the suite has no condition to serve".to_string())?;
        let rates = ChannelRates::default();
        let cert = certify_program(&fused, &rates, Precision::F64, &self.cert_target)
            .map_err(|e| format!("fused suite cannot run on the hub: {e}"))?;
        let overflows = !cert.fits_cap;
        let misses_deadline = self.cert_target.mcu.is_some() && cert.mcu.error.is_some();
        if overflows || misses_deadline {
            let details = diagnostics(&cert)
                .iter()
                .map(|d| format!("{}: {}", d.code.code(), d.message))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(format!(
                "fused suite fails certification against {} (cap {}): {details}",
                cert.mcu.mcu, cert.cap
            ));
        }
        Ok(cert.digest())
    }

    /// Runs the fleet under the currently served program, or returns
    /// the cached rollup when the served set has not changed.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NothingSubmitted`] when no condition is in.
    pub fn run(&mut self) -> Result<&FleetRollup, ServiceError> {
        if self.rollup.is_none() {
            let program = self
                .served_program()
                .ok_or(ServiceError::NothingSubmitted)?;
            self.rollup = Some(run_fleet(&self.config, &program, self.workers));
        }
        Ok(self.rollup.as_ref().expect("rollup just ensured"))
    }

    /// Handles one framed request and produces one framed reply:
    /// submissions get a [`MessageType::SubmitAck`], rollup queries a
    /// [`MessageType::RollupReply`] carrying the rollup JSON, and every
    /// failure a [`MessageType::ErrorReply`] with the error text — the
    /// service never panics on hostile input.
    pub fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        match self.handle_inner(request) {
            Ok(reply) => reply,
            Err(e) => encode_message(MessageType::ErrorReply, e.to_string().as_bytes()),
        }
    }

    fn handle_inner(&mut self, request: &[u8]) -> Result<Vec<u8>, ServiceError> {
        let (kind, payload) = decode_message(request)?;
        match kind {
            MessageType::SubmitProgram => {
                let program = decode_submit(&payload)?;
                let ack = self.submit_program(program)?;
                Ok(encode_submit_ack(&ack))
            }
            MessageType::QueryRollup => {
                let json = self.run()?.to_json();
                Ok(encode_message(MessageType::RollupReply, json.as_bytes()))
            }
            other => Err(ServiceError::Wire(WireError::UnexpectedType {
                expected: MessageType::SubmitProgram,
                got: other,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_query_rollup, encode_submit};
    use sidewinder_sensors::Micros;

    fn tiny_service() -> FleetService {
        let config = FleetConfig {
            shard_size: 8,
            device_duration: Micros::from_secs(10),
            ..FleetConfig::new(0xBEE, 16)
        };
        FleetService::new(config).with_workers(2)
    }

    fn steps() -> Program {
        "ACC_X -> movingAvg(id=1, params={10});
         1 -> minThreshold(id=2, params={15});
         2 -> OUT;"
            .parse()
            .unwrap()
    }

    #[test]
    fn duplicate_submissions_share_an_instance() {
        let mut svc = tiny_service();
        let first = svc.submit_program(steps()).unwrap();
        assert_eq!(first.condition_id, 0);
        assert!(!first.deduplicated);
        assert_eq!(first.active_unique, 1);
        // The same condition with different node ids: deduplicated.
        let twin: Program = "ACC_X -> movingAvg(id=9, params={10});
                             9 -> minThreshold(id=4, params={15});
                             4 -> OUT;"
            .parse()
            .unwrap();
        let second = svc.submit_program(twin).unwrap();
        assert!(second.deduplicated);
        assert_eq!(second.active_unique, 1);
        assert_eq!(second.unique_index, first.unique_index);
        assert_eq!(second.program_digest, first.program_digest);
    }

    #[test]
    fn full_wire_round_trip_submit_then_query() {
        let mut svc = tiny_service();
        let reply = svc.handle(&encode_submit(&steps()));
        let (kind, payload) = decode_message(&reply).unwrap();
        assert_eq!(kind, MessageType::SubmitAck);
        let ack = crate::wire::decode_submit_ack(&payload).unwrap();
        assert_eq!(ack.active_unique, 1);

        let reply = svc.handle(&encode_query_rollup());
        let (kind, payload) = decode_message(&reply).unwrap();
        assert_eq!(kind, MessageType::RollupReply);
        let json = String::from_utf8(payload).unwrap();
        assert!(json.contains("\"devices\": 16"));
        assert!(json.contains("\"digest\": \"0x"));
    }

    #[test]
    fn hostile_requests_get_error_replies_not_panics() {
        let mut svc = tiny_service();
        for request in [
            &b""[..],
            &[0u8; 3][..],
            &[0xFFu8; 300][..],
            &encode_submit(&steps())[..10],
            &encode_message(MessageType::SubmitProgram, b"not a program")[..],
        ] {
            let reply = svc.handle(request);
            let (kind, payload) = decode_message(&reply).unwrap();
            assert_eq!(kind, MessageType::ErrorReply);
            assert!(!payload.is_empty());
        }
        // A rollup query with nothing submitted is an error, not a run.
        let reply = svc.handle(&encode_query_rollup());
        let (kind, _) = decode_message(&reply).unwrap();
        assert_eq!(kind, MessageType::ErrorReply);
    }

    #[test]
    fn accepted_submissions_carry_the_fused_certificate_digest() {
        let mut svc = tiny_service();
        let ack = svc.submit_program(steps()).unwrap();
        assert_ne!(ack.cert_digest, 0);
        // The digest is the certificate of the fused served program.
        let fused = svc.served_program().unwrap();
        let cert = certify_program(
            &fused,
            &ChannelRates::default(),
            Precision::F64,
            svc.cert_target(),
        )
        .unwrap();
        assert_eq!(ack.cert_digest, cert.digest());
    }

    #[test]
    fn ingest_rejects_suites_that_certifiably_overflow_the_core() {
        // A fleet pinned to a toy 64-element core: the windowed audio
        // condition certifiably needs ~1.5k sample-arena elements.
        let mut svc = tiny_service().with_cert_target(CertTarget { mcu: None, cap: 64 });
        let ok = svc.submit_program(steps()).unwrap();
        assert_ne!(ok.cert_digest, 0);
        let served_before = svc.served_program().unwrap();
        let rollup_before = svc.run().unwrap().digest();

        let audio: Program = "MIC -> window(id=1, params={512, 512, 0});
                              1 -> zcrVariance(id=2, params={2});
                              2 -> minThreshold(id=3, params={0});
                              3 -> OUT;"
            .parse()
            .unwrap();
        let err = svc.submit_program(audio).unwrap_err();
        let WireError::Invalid(msg) = err else {
            panic!("expected a certification rejection, got {err:?}");
        };
        assert!(msg.contains("SW008"), "diagnostics missing from: {msg}");
        assert!(msg.contains("sample arena"), "arena name missing: {msg}");

        // Transactional: the served set and rollup are untouched.
        assert_eq!(svc.submissions().len(), 1);
        assert_eq!(svc.served_program().unwrap(), served_before);
        assert_eq!(svc.run().unwrap().digest(), rollup_before);
    }

    #[test]
    fn ingest_rejects_suites_beyond_the_hub_node_limit() {
        // Four-node conditions that share nothing: the fused suite grows
        // by four nodes per submission, plus one `anyOf` join, and
        // outgrows the hub's node table before the join runs out of
        // ports.
        let condition = |window: u32| -> Program {
            format!(
                "ACC_X -> movingAvg(id=1, params={{{window}}});
                 1 -> expMovingAvg(id=2, params={{0.5}});
                 2 -> movingAvg(id=3, params={{3}});
                 3 -> minThreshold(id=4, params={{15}});
                 4 -> OUT;"
            )
            .parse()
            .unwrap()
        };
        let mut svc = tiny_service();
        let mut rejected = None;
        for window in 2..40 {
            let served_before = svc.served_program();
            let rollup_before = svc.run().ok().map(|r| r.digest());
            let reply = svc.handle(&encode_submit(&condition(window)));
            let (kind, payload) = decode_message(&reply).unwrap();
            if kind == MessageType::SubmitAck {
                let ack = crate::wire::decode_submit_ack(&payload).unwrap();
                assert_ne!(ack.cert_digest, 0, "served without a certificate");
                continue;
            }
            assert_eq!(kind, MessageType::ErrorReply);
            let msg = String::from_utf8(payload).unwrap();
            assert!(msg.contains("image nodes"), "reason missing from: {msg}");
            // Transactional: the served set and rollup are untouched.
            assert_eq!(svc.submissions().len(), (window - 2) as usize);
            assert_eq!(svc.served_program(), served_before);
            assert_eq!(svc.run().ok().map(|r| r.digest()), rollup_before);
            rejected = Some(window);
            break;
        }
        assert!(rejected.is_some(), "the suite must outgrow the hub");
        let served = svc.served_program().unwrap();
        assert!(served.nodes().count() <= sidewinder_hub::MAX_NODES);
    }

    #[test]
    fn rollups_are_cached_until_the_served_set_changes() {
        let mut svc = tiny_service();
        svc.submit_program(steps()).unwrap();
        let d1 = svc.run().unwrap().digest();
        let d2 = svc.run().unwrap().digest();
        assert_eq!(d1, d2);
        // A genuinely new condition invalidates the cache and changes
        // the served program.
        let other: Program = "ACC_Y -> movingAvg(id=1, params={4});
                              1 -> maxThreshold(id=2, params={-2});
                              2 -> OUT;"
            .parse()
            .unwrap();
        let ack = svc.submit_program(other).unwrap();
        assert!(!ack.deduplicated);
        assert_eq!(ack.active_unique, 2);
        let d3 = svc.run().unwrap().digest();
        assert_ne!(d1, d3);
    }
}
