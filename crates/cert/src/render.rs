//! Canonical JSON rendering, FNV-1a digests, and the pins document.
//!
//! Certificates are digested over a *canonical* rendering — fixed field
//! order, floats via Rust's shortest-roundtrip `{:?}` formatting, no
//! locale or map-iteration nondeterminism — so the same image certifies
//! to the same digest on every host, and `results/resource_certs.json`
//! can pin the golden fixtures against drift.

use crate::{McuVerdict, ResourceCert};
use sidewinder_hub::mcu::CapacityError;
use sidewinder_ir::fnv::Fnv1a;

/// A certificate's pinned digest: FNV-1a over its canonical JSON.
pub fn digest(cert: &ResourceCert) -> u64 {
    Fnv1a::hash(canonical_json(cert).as_bytes())
}

/// Shortest-roundtrip float rendering; non-finite values become `null`
/// (JSON has no Inf/NaN).
fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::from("null")
    }
}

fn opt_u32(v: Option<u32>) -> String {
    v.map_or_else(|| String::from("null"), |v| v.to_string())
}

fn verdict_label(v: &McuVerdict) -> &'static str {
    match v.error {
        None => "ok",
        Some(CapacityError::NotRealTime { .. }) => "not-real-time",
        Some(CapacityError::OutOfMemory { .. }) => "out-of-memory",
    }
}

/// Renders a certificate as canonical JSON.
pub fn canonical_json(cert: &ResourceCert) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"precision\": \"{}\",\n",
        cert.precision.name()
    ));
    out.push_str(&format!("  \"cap\": {},\n", cert.cap));
    out.push_str(&format!(
        "  \"required_capacity\": {},\n",
        cert.required_capacity
    ));
    out.push_str(&format!("  \"fits_cap\": {},\n", cert.fits_cap));
    out.push_str(&format!("  \"total_bytes\": {},\n", cert.total_bytes));
    out.push_str("  \"arenas\": [\n");
    for (i, a) in cert.arenas.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"elements\": {}, \"element_bytes\": {}, \"bytes\": {}, \
             \"peak_node\": {}, \"peak_elements\": {}}}{}\n",
            a.name,
            a.elements,
            a.element_bytes,
            a.bytes,
            a.peak_node
                .map_or_else(|| String::from("null"), |n| n.to_string()),
            a.peak_elements,
            if i + 1 < cert.arenas.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"nodes\": [\n");
    for (i, n) in cert.nodes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"index\": {}, \"kind\": \"{}\", \"id\": {}, \"line\": {}, \
             \"input_rate_hz\": {}, \"out_rate_hz\": {}, \"out_len\": {}, \
             \"base_rate_hz\": {}, \"channels_mask\": {}, \"flops_per_input\": {}, \
             \"flops_per_second\": {}, \"memory_bytes\": {}}}{}\n",
            n.index,
            n.kind,
            opt_u32(n.ir_id),
            opt_u32(n.line),
            float(n.input_rate_hz),
            float(n.out_rate_hz),
            n.out_len,
            float(n.base_rate_hz),
            n.channels_mask,
            float(n.flops_per_input),
            float(n.flops_per_second),
            n.memory_bytes,
            if i + 1 < cert.nodes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"channel_rates\": [{}],\n",
        cert.channel_rates
            .iter()
            .map(|&r| float(r))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"total_flops_per_second\": {},\n",
        float(cert.total_flops_per_second)
    ));
    out.push_str(&format!(
        "  \"total_memory_bytes\": {},\n",
        cert.total_memory_bytes
    ));
    out.push_str(&format!(
        "  \"wake_rate_hz\": {},\n",
        float(cert.wake_rate_hz)
    ));
    out.push_str(&format!(
        "  \"mcu\": {{\"name\": \"{}\", \"awake_power_mw\": {}, \"demanded_cycles_per_s\": {}, \
         \"budget_cycles_per_s\": {}, \"memory_bytes\": {}, \"ram_bytes\": {}, \"verdict\": \"{}\"}},\n",
        cert.mcu.mcu,
        float(cert.mcu.awake_power_mw),
        float(cert.mcu.demanded_cycles_per_s),
        float(cert.mcu.budget_cycles_per_s),
        cert.mcu.memory_bytes,
        cert.mcu.ram_bytes,
        verdict_label(&cert.mcu),
    ));
    out.push_str(&format!(
        "  \"energy\": {{\"compute_uw\": {}, \"link_uw\": {}, \"total_uw\": {}}}\n",
        float(cert.energy.compute_uw),
        float(cert.energy.link_uw),
        float(cert.energy.total_uw),
    ));
    out.push('}');
    out
}

/// One row of the pins document.
#[derive(Debug, Clone, PartialEq)]
pub struct PinEntry {
    /// Program name (fixture stem, or `fused_all_six`).
    pub name: String,
    /// Smallest core capacity that loads the image.
    pub required_capacity: usize,
    /// Certified worst-case wake rate, Hz.
    pub wake_rate_hz: f64,
    /// Digest of the `f64` certificate.
    pub digest_f64: u64,
    /// Digest of the `f32` certificate.
    pub digest_f32: u64,
}

impl PinEntry {
    /// Builds a row from a program's two certificates, which must agree
    /// on everything precision-independent.
    pub fn from_certs(
        name: impl Into<String>,
        f64_cert: &ResourceCert,
        f32_cert: &ResourceCert,
    ) -> PinEntry {
        debug_assert_eq!(f64_cert.required_capacity, f32_cert.required_capacity);
        PinEntry {
            name: name.into(),
            required_capacity: f64_cert.required_capacity,
            wake_rate_hz: f64_cert.wake_rate_hz,
            digest_f64: digest(f64_cert),
            digest_f32: digest(f32_cert),
        }
    }
}

/// Renders the pins document committed at `results/resource_certs.json`.
pub fn render_pins(cap: usize, entries: &[PinEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cap\": {cap},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"required_capacity\": {}, \"wake_rate_hz\": {}, \
             \"digest_f64\": \"{:#018x}\", \"digest_f32\": \"{:#018x}\"}}{}\n",
            e.name,
            e.required_capacity,
            float(e.wake_rate_hz),
            e.digest_f64,
            e.digest_f32,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{certify_program, CertTarget, Precision};
    use sidewinder_hub::runtime::ChannelRates;
    use sidewinder_ir::Program;

    #[test]
    fn canonical_json_is_deterministic_and_digestable() {
        let program: Program = "ACC_X -> movingAvg(id=1, params={4});
             1 -> minThreshold(id=2, params={5});
             2 -> OUT;"
            .parse()
            .unwrap();
        let rates = ChannelRates::default();
        let a = certify_program(&program, &rates, Precision::F64, &CertTarget::default()).unwrap();
        let b = certify_program(&program, &rates, Precision::F64, &CertTarget::default()).unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(a.digest(), b.digest());
        let json = canonical_json(&a);
        assert!(json.contains("\"precision\": \"f64\""));
        assert!(json.contains("\"kind\": \"movingAvg\""));
        assert!(json.contains("\"verdict\": \"ok\""));
        // A different cap is a different certificate.
        let c = certify_program(
            &program,
            &rates,
            Precision::F64,
            &CertTarget {
                mcu: None,
                cap: 128,
            },
        )
        .unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn pins_round_to_stable_hex() {
        let entry = PinEntry {
            name: String::from("toy"),
            required_capacity: 192,
            wake_rate_hz: 50.0,
            digest_f64: 0x1234,
            digest_f32: 0xabcd,
        };
        let doc = render_pins(16_384, &[entry]);
        assert!(doc.contains("\"cap\": 16384"));
        assert!(doc.contains("\"digest_f64\": \"0x0000000000001234\""));
        assert!(doc.contains("\"digest_f32\": \"0x000000000000abcd\""));
    }
}
