//! Canonical request digests: the content address of a synthesis request.
//!
//! Two requests that would produce the same artifacts must hash to the
//! same digest, and any input that could change the output must perturb
//! it. The preimage is therefore built from *canonical* forms, not the
//! request text the client sent:
//!
//! - the parsed [`Function`]'s display form (whitespace, comments and
//!   front-end sugar in the C source have already been erased),
//! - the directive set serialized through [`Directives::to_json`] (a
//!   sorted, deterministic encoding) plus the exact clock-period bits,
//! - the [`TechLibrary::fingerprint`] (every calibration constant), and
//! - the verify flag (a verified artifact carries a verdict an unverified
//!   one does not).
//!
//! The digest is [`stable_digest`] over that preimage. It is not
//! cryptographic, and it need not be: the store keeps the preimage
//! alongside each entry and serves a hit only when the stored preimage
//! equals the request's byte for byte. A collision therefore degrades to
//! a cache miss, never to serving the wrong artifact, and the digest's
//! strength decides only how often the store misses.

use hls_core::{Directives, TechLibrary};
use hls_ir::{stable_digest, Function};

/// Schema tag mixed into every preimage (bump to invalidate all entries).
/// v3: directive JSON grew the `stream` interface-synthesis key, so
/// shelled and unshelled artifacts (and differing FIFO depths) can never
/// alias pre-stream cache entries. v4: [`stable_digest`] became
/// MurmurHash3 (x64, 128-bit), so every digest, and with it every entry's
/// file name and shard prefix, moved.
pub const REQUEST_SCHEMA: &str = "hls-serve-request/v4";

/// A request's content address: the digest plus the preimage it was
/// computed from (stored with the entry so integrity is checkable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestKey {
    /// 32-hex-digit content digest; the entry's on-disk identity.
    pub digest: String,
    /// The canonical preimage the digest was computed over.
    pub preimage: String,
}

impl RequestKey {
    /// The digest's leading byte — the store's `objects/<2-hex-prefix>/`
    /// shard directory, and the cluster's unit of shard ownership (the
    /// hash ring maps the 256 prefixes onto shards).
    pub fn shard_prefix(&self) -> u8 {
        u8::from_str_radix(self.digest.get(..2).unwrap_or("00"), 16).unwrap_or(0)
    }
}

/// Builds the canonical content address for one synthesis request.
pub fn request_key(
    func: &Function,
    directives: &Directives,
    lib: &TechLibrary,
    verify: bool,
) -> RequestKey {
    request_key_for_text(&func.to_string(), directives, lib, verify)
}

/// [`request_key`] for a pre-rendered canonical IR text — lets batch
/// callers render each unique design once across many directive sets.
pub fn request_key_for_text(
    func_text: &str,
    directives: &Directives,
    lib: &TechLibrary,
    verify: bool,
) -> RequestKey {
    let mut preimage = String::new();
    preimage.push_str(REQUEST_SCHEMA);
    preimage.push('\n');
    preimage.push_str("library ");
    preimage.push_str(&lib.fingerprint());
    preimage.push('\n');
    preimage.push_str("clock_bits ");
    preimage.push_str(&format!("{:016x}", directives.clock_period_ns.to_bits()));
    preimage.push('\n');
    preimage.push_str("directives ");
    preimage.push_str(&directives.to_json().write());
    preimage.push('\n');
    preimage.push_str("verify ");
    preimage.push_str(if verify { "true" } else { "false" });
    preimage.push('\n');
    preimage.push_str("ir\n");
    preimage.push_str(func_text);
    let digest = stable_digest(preimage.as_bytes());
    RequestKey { digest, preimage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::parse_function;

    const SUM_SRC: &str = r#"
        void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) {
            sc_fixed<16,8> acc = 0;
            sum_loop: for (int k = 0; k < 8; k++) {
                acc += x[k];
            }
            *out = acc;
        }
    "#;

    #[test]
    fn digest_is_deterministic_and_input_sensitive() {
        let f = parse_function(SUM_SRC).unwrap();
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        let k1 = request_key(&f, &d, &lib, true);
        let k2 = request_key(&f, &d, &lib, true);
        assert_eq!(k1, k2);
        assert_eq!(k1.digest.len(), 32);
        assert_eq!(k1.digest, stable_digest(k1.preimage.as_bytes()));

        // Every canonical input perturbs the digest.
        assert_ne!(request_key(&f, &d, &lib, false).digest, k1.digest);
        assert_ne!(
            request_key(&f, &Directives::new(8.0), &lib, true).digest,
            k1.digest
        );
        assert_ne!(
            request_key(&f, &d, &TechLibrary::fpga_slow(), true).digest,
            k1.digest
        );
        let g = parse_function(&SUM_SRC.replace("k < 8", "k < 7")).unwrap();
        assert_ne!(request_key(&g, &d, &lib, true).digest, k1.digest);
    }

    #[test]
    fn stream_interface_bits_perturb_the_digest() {
        // Interface configuration changes the emitted artifact set (shell
        // module, FIFO parameterization), so every stream directive bit
        // must land in the digest: on/off, depth, and fall-through mode
        // all produce distinct content addresses.
        let f = parse_function(SUM_SRC).unwrap();
        let lib = TechLibrary::asic_100mhz();
        let keys: Vec<String> = [
            Directives::new(10.0),
            Directives::new(10.0).stream_interface(2, false),
            Directives::new(10.0).stream_interface(3, false),
            Directives::new(10.0).stream_interface(2, true),
        ]
        .iter()
        .map(|d| request_key(&f, d, &lib, true).digest)
        .collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "configs {i} and {j} alias");
            }
        }
    }

    #[test]
    fn source_formatting_does_not_perturb_the_digest() {
        let f = parse_function(SUM_SRC).unwrap();
        let reformatted = parse_function(
            "void sum(sc_fixed<10,2> x[8],sc_fixed<16,8>*out){sc_fixed<16,8> acc=0;\
             sum_loop:for(int k=0;k<8;k++){acc+=x[k];}*out=acc;}",
        )
        .unwrap();
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        assert_eq!(
            request_key(&f, &d, &lib, true).digest,
            request_key(&reformatted, &d, &lib, true).digest,
            "the digest is over the canonical IR, not the source text"
        );
    }
}
