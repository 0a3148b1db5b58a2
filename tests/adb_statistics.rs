//! The αDB statistics of the generated slates, pinned by digest: any change
//! to how the build computes a property (its dictionary, per-entity codes
//! or runs, postings, θ-lists, cutpoints or numeric ranges) fails here.
//!
//! The digest reads only public accessors and hashes strings, never `Sym`
//! ids (those are per-process insertion order), and never `Debug` output
//! (a dictionary's hash-map order may change while its content does not).
//! Regenerating the constants is a deliberate act: print
//! `statistics_digest` for each slate and update.

use squid_adb::{ADb, PropStats};
use squid_datasets::{
    generate_adult, generate_dblp, generate_imdb, AdultConfig, DblpConfig, ImdbConfig,
};
use squid_relation::{Database, Value};

/// FNV-1a, 64-bit: a hash whose output is fixed by its definition.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u64(0),
            Value::Bool(b) => {
                self.u64(1);
                self.u64(u64::from(*b));
            }
            Value::Int(i) => {
                self.u64(2);
                self.u64(*i as u64);
            }
            Value::Float(x) => {
                self.u64(3);
                self.u64(x.get().to_bits());
            }
            Value::Text(s) => {
                self.u64(4);
                self.str(s.as_str());
            }
        }
    }

    fn postings(&mut self, postings: &[u64]) {
        self.u64(postings.len() as u64);
        postings.iter().for_each(|&p| self.u64(p));
    }
}

/// Digest of every property's statistics, entity tables in name order and
/// properties in build order.
fn statistics_digest(db: &Database) -> u64 {
    let adb = ADb::build(db).unwrap();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut names: Vec<&String> = adb.entities.keys().collect();
    names.sort();
    for name in names {
        let e = &adb.entities[name];
        h.str(name);
        h.u64(e.n as u64);
        for p in &e.props {
            h.str(&p.def.id);
            match &p.stats {
                PropStats::Categorical(s) => {
                    h.u64(10);
                    s.domain().iter().for_each(|v| h.value(v));
                    for row in 0..e.n {
                        let codes = s.codes_of(row);
                        h.u64(codes.len() as u64);
                        codes.iter().for_each(|&c| h.u64(u64::from(c)));
                    }
                    for v in s.domain() {
                        let rows = s.rows_with(v).expect("a domain value has rows");
                        h.u64(rows.len() as u64);
                        rows.for_each(|row| h.u64(row as u64));
                    }
                }
                PropStats::Numeric(s) => {
                    h.u64(11);
                    for row in 0..e.n {
                        h.u64(s.value_of(row).map_or(1, |x| x.to_bits() ^ 2));
                    }
                    let range = s.rows_in_range(f64::NEG_INFINITY, f64::INFINITY);
                    h.u64(range.len() as u64);
                    for &(x, row) in range {
                        h.u64(x.to_bits());
                        h.u64(row as u64);
                    }
                }
                PropStats::Derived(s) => {
                    h.u64(12);
                    s.domain().iter().for_each(|v| h.value(v));
                    for row in 0..e.n {
                        let run = s.runs_of(row);
                        h.u64(run.len() as u64);
                        for &(code, count) in run {
                            h.u64(u64::from(code) << 32 | u64::from(count));
                        }
                        h.u64(s.total_of(row));
                    }
                    for code in 0..s.domain().len() as u32 {
                        h.postings(s.postings_ge_code(code, 0));
                    }
                }
                PropStats::DerivedNumeric(s) => {
                    h.u64(13);
                    s.cutpoints().iter().for_each(|x| h.u64(x.to_bits()));
                    for row in 0..e.n {
                        let run = s.runs_of(row);
                        h.u64(run.len() as u64);
                        for &(rank, count) in run {
                            h.u64(u64::from(rank) << 32 | u64::from(count));
                        }
                    }
                    for &cut in s.cutpoints() {
                        h.postings(s.postings_ge(cut, 1));
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn imdb_statistics_are_pinned() {
    let digest = statistics_digest(&generate_imdb(&ImdbConfig::default()));
    assert_eq!(
        digest, 0x21a803dda70a8957,
        "IMDb 1x statistics digest {digest:#018x}"
    );
}

#[test]
fn dblp_statistics_are_pinned() {
    let digest = statistics_digest(&generate_dblp(&DblpConfig::default()));
    assert_eq!(
        digest, 0xd2628fe84d85af35,
        "DBLP 1x statistics digest {digest:#018x}"
    );
}

#[test]
fn adult_statistics_are_pinned() {
    let digest = statistics_digest(&generate_adult(&AdultConfig::default()));
    assert_eq!(
        digest, 0x2fdbf8f2aeb788c7,
        "Adult 1x statistics digest {digest:#018x}"
    );
}
