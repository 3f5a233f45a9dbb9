//! Post-mortem state introspection: the canonical state digest and a
//! structural JSON diff.
//!
//! Every stateful router component (buffer pools, reservation tables,
//! pipeline stages) has a `snapshot` method that dumps its complete state
//! as a [`Json`] value; the network streams its whole document through a
//! [`crate::JsonWriter`], writing each router's dump as it goes, so no
//! tree of the whole document is built. A tree of it exists only where
//! rendered text is parsed back ([`Json::parse`]): replay reads a
//! captured sidecar that way, and lists a mismatch by parsing the live
//! rendering too. The dumps' contract:
//!
//! * A dump is a pure function of simulation state: two components that
//!   have processed the same event history dump identical values.
//! * Hash-ordered containers are sorted before they are rendered.
//! * Nondeterministic data (wall clocks, host info) stays out.
//!
//! So the same simulation state always renders to the same bytes — which
//! is what makes [`state_digest`] a meaningful fingerprint: replaying a
//! run manifest to the captured cycle must reproduce the digest bit for
//! bit.
//!
//! [`json_diff`] is the inspection side: a structural comparison that
//! reports every differing path, used by `frfc-inspect diff` and by the
//! black-box round-trip tests.

use crate::json::Json;

/// FNV-1a offset basis (matches the golden-trace fingerprint suite).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A `fmt::Write` sink that folds every byte written into an FNV-1a
/// hash: the canonical digest of whatever document is rendered into it,
/// tree ([`Json::write_to`]) or stream ([`crate::JsonWriter`]).
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a(self.0, s.as_bytes());
        Ok(())
    }
}

/// The canonical digest of a state dump: FNV-1a over the rendered JSON,
/// formatted as 16 lowercase hex digits. Hashes [`Json::render`]'s
/// bytes as [`Json::write_to`] produces them, so digest equality is
/// exactly byte equality of the canonical form, and no rendered copy of
/// the document is built.
pub fn state_digest(doc: &Json) -> String {
    let mut digest = Digest::default();
    doc.write_to(&mut digest).expect("hashing cannot fail");
    digest.hex()
}

/// One difference between two JSON documents.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonDiff {
    /// Dotted path to the differing value (array indices in brackets).
    pub path: String,
    /// Short description of the difference.
    pub detail: String,
}

impl std::fmt::Display for JsonDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Renders a scalar compactly for diff output (structures abbreviate).
fn brief(v: &Json) -> String {
    match v {
        Json::Arr(items) => format!("[..{} items..]", items.len()),
        Json::Obj(pairs) => format!("{{..{} keys..}}", pairs.len()),
        other => other.render(),
    }
}

fn diff_into(a: &Json, b: &Json, path: &str, out: &mut Vec<JsonDiff>) {
    match (a, b) {
        (Json::Obj(pa), Json::Obj(pb)) => {
            for (k, va) in pa {
                match b.get(k) {
                    Some(vb) => diff_into(va, vb, &format!("{path}.{k}"), out),
                    None => out.push(JsonDiff {
                        path: format!("{path}.{k}"),
                        detail: format!("only in left ({})", brief(va)),
                    }),
                }
            }
            for (k, vb) in pb {
                if a.get(k).is_none() {
                    out.push(JsonDiff {
                        path: format!("{path}.{k}"),
                        detail: format!("only in right ({})", brief(vb)),
                    });
                }
            }
        }
        (Json::Arr(ia), Json::Arr(ib)) => {
            for (i, (va, vb)) in ia.iter().zip(ib.iter()).enumerate() {
                diff_into(va, vb, &format!("{path}[{i}]"), out);
            }
            if ia.len() != ib.len() {
                out.push(JsonDiff {
                    path: path.to_string(),
                    detail: format!("array length {} vs {}", ia.len(), ib.len()),
                });
            }
        }
        _ if a == b => {}
        _ => out.push(JsonDiff {
            path: path.to_string(),
            detail: format!("{} vs {}", brief(a), brief(b)),
        }),
    }
}

/// Structurally compares two JSON documents, returning every differing
/// path (empty when the documents are equal). Object key *order* is
/// ignored — snapshots render keys in a canonical order anyway, and a
/// reordered-but-equal document should not read as a state divergence.
pub fn json_diff(a: &Json, b: &Json) -> Vec<JsonDiff> {
    let mut out = Vec::new();
    diff_into(a, b, "$", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::obj(vec![
            ("cycle".into(), Json::Num(42.0)),
            (
                "tables".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]),
            ),
        ])
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = doc();
        let b = doc();
        assert_eq!(state_digest(&a), state_digest(&b));
        let mut c = doc();
        if let Json::Obj(pairs) = &mut c {
            pairs[0].1 = Json::Num(43.0);
        }
        assert_ne!(state_digest(&a), state_digest(&c));
        assert_eq!(state_digest(&a).len(), 16);
    }

    #[test]
    fn digest_hashes_the_rendered_bytes() {
        let tricky = Json::obj(vec![
            ("doc".into(), doc()),
            (
                "misc".into(),
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::Num(0.25),
                    Json::Num(f64::NAN),
                    Json::str("tab\there \"q\" \u{1} é"),
                    Json::Arr(vec![]),
                    Json::obj(vec![]),
                ]),
            ),
        ]);
        for d in [doc(), tricky] {
            let want = format!("{:016x}", fnv1a(FNV_OFFSET, d.render().as_bytes()));
            assert_eq!(state_digest(&d), want);
        }
    }

    #[test]
    fn diff_of_equal_documents_is_empty() {
        assert!(json_diff(&doc(), &doc()).is_empty());
    }

    #[test]
    fn diff_reports_paths() {
        let a = doc();
        let mut b = doc();
        if let Json::Obj(pairs) = &mut b {
            pairs[0].1 = Json::Num(7.0);
            pairs[1].1 = Json::Arr(vec![Json::Num(1.0)]);
        }
        let diffs = json_diff(&a, &b);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"$.cycle"), "diffs: {diffs:?}");
        assert!(paths.contains(&"$.tables"), "diffs: {diffs:?}");
    }

    #[test]
    fn diff_reports_missing_keys_both_ways() {
        let a = Json::obj(vec![("left".into(), Json::Num(1.0))]);
        let b = Json::obj(vec![("right".into(), Json::Num(2.0))]);
        let diffs = json_diff(&a, &b);
        assert_eq!(diffs.len(), 2);
        assert!(diffs[0].detail.contains("only in left"));
        assert!(diffs[1].detail.contains("only in right"));
    }

    #[test]
    fn key_order_does_not_diff() {
        let a = Json::obj(vec![
            ("x".into(), Json::Num(1.0)),
            ("y".into(), Json::Num(2.0)),
        ]);
        let b = Json::obj(vec![
            ("y".into(), Json::Num(2.0)),
            ("x".into(), Json::Num(1.0)),
        ]);
        assert!(json_diff(&a, &b).is_empty());
    }
}
