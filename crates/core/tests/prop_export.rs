//! Property test for the CSV export/import round trip: a dataset whose
//! host fields hold arbitrary content — commas, quotes, newlines, CR,
//! Unicode — must survive `import_csv(export_csv(ds))` bit-for-bit. On
//! the in-repo harness.

use govhost_core::classify::ClassificationMethod;
use govhost_core::{export_csv, import_csv, GovDataset, HostRecord, UrlTable};
use govhost_harness::{gens, prop_assert_eq, Config, Gen};
use govhost_types::{Asn, CountryCode, HostInterner, Hostname, ProviderCategory};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const REGRESSIONS: &str = "tests/regressions/prop_export.txt";

fn cfg(name: &str) -> Config {
    Config::new(name).cases(192).regressions(REGRESSIONS)
}

/// A hostname label from the valid alphabet; uniqueness comes from the
/// caller suffixing the row index.
fn arb_label() -> Gen<String> {
    gens::string_of("abcdefghijklmnopqrstuvwxyz0123456789", 1, 12)
}

/// Organisation names are free-form WHOIS text: exercise exactly the
/// characters the CSV layer has to escape (separators, quotes, both
/// newline flavours) plus arbitrary Unicode. `None` sometimes, but never
/// `Some("")` — the format writes absent fields as empty, so an empty
/// string cannot round-trip as distinct from `None`.
fn arb_org() -> Gen<Option<String>> {
    let nasty = gens::string_of(",\"'\n\r\t ;|aZ0-é漢🌐", 1, 24);
    gens::one_of(vec![
        Gen::constant(None),
        nasty.map(Some),
        gens::unicode_string(1, 16).map(Some),
    ])
}

/// One host row as raw material: a label, an org, and a bag of bits the
/// property decodes into the remaining (enum/option/bool) fields so every
/// column varies without a dedicated generator per field.
fn arb_rows() -> Gen<Vec<(String, Option<String>, u64)>> {
    gens::vec(gens::zip3(arb_label(), arb_org(), gens::u64_any()), 1, 12)
}

const COUNTRIES: [&str; 5] = ["MX", "BR", "US", "DE", "FR"];

fn decode_host(i: usize, label: &str, org: Option<String>, bits: u64) -> HostRecord {
    let country: CountryCode =
        COUNTRIES[(bits >> 2) as usize % COUNTRIES.len()].parse().unwrap();
    let hostname: Hostname =
        format!("{label}.h{i}.gov").parse().expect("generated labels are valid");
    let method = match bits % 3 {
        0 => ClassificationMethod::GovTld,
        1 => ClassificationMethod::DomainMatch,
        _ => ClassificationMethod::San,
    };
    let category = match (bits >> 5) % 5 {
        0 => None,
        1 => Some(ProviderCategory::GovtSoe),
        2 => Some(ProviderCategory::ThirdPartyLocal),
        3 => Some(ProviderCategory::ThirdPartyRegional),
        _ => Some(ProviderCategory::ThirdPartyGlobal),
    };
    HostRecord {
        hostname,
        country,
        method,
        ip: (bits & 1 << 8 != 0).then_some(Ipv4Addr::from((bits >> 32) as u32)),
        asn: (bits & 1 << 9 != 0).then_some(Asn((bits >> 16 & 0xFFFF) as u32)),
        org,
        registration: (bits & 1 << 10 != 0)
            .then(|| COUNTRIES[(bits >> 11) as usize % COUNTRIES.len()].parse().unwrap()),
        state_operated: bits & 1 << 14 != 0,
        category,
        server_country: (bits & 1 << 15 != 0)
            .then(|| COUNTRIES[(bits >> 16) as usize % COUNTRIES.len()].parse().unwrap()),
        anycast: bits & 1 << 20 != 0,
        geo_excluded: bits & 1 << 21 != 0,
    }
}

fn dataset_of(rows: &[(String, Option<String>, u64)]) -> GovDataset {
    let hosts: Vec<HostRecord> = rows
        .iter()
        .enumerate()
        .map(|(i, (label, org, bits))| decode_host(i, label, org.clone(), *bits))
        .collect();
    let mut host_ids = HostInterner::new();
    for h in &hosts {
        host_ids.intern(&h.hostname);
    }
    GovDataset {
        hosts,
        urls: UrlTable::new(),
        host_ids,
        validation: Default::default(),
        method_counts: [0; 3],
        crawl_failures: rows[0].2 as u32 & 0xFFFF,
        per_country: HashMap::new(),
        timings: Default::default(),
        telemetry: Default::default(),
    }
}

#[test]
fn export_import_round_trips_arbitrary_host_fields() {
    cfg("export_import_round_trips_arbitrary_host_fields").run(&arb_rows(), |rows| {
        let ds = dataset_of(rows);
        let loaded = import_csv(&export_csv(&ds)).map_err(|e| e.to_string())?;
        prop_assert_eq!(loaded.hosts.len(), ds.hosts.len());
        for (a, b) in ds.hosts.iter().zip(&loaded.hosts) {
            prop_assert_eq!(&b.hostname, &a.hostname);
            prop_assert_eq!(b.country, a.country);
            prop_assert_eq!(b.method, a.method);
            prop_assert_eq!(b.ip, a.ip);
            prop_assert_eq!(b.asn, a.asn);
            prop_assert_eq!(&b.org, &a.org);
            prop_assert_eq!(b.registration, a.registration);
            prop_assert_eq!(b.state_operated, a.state_operated);
            prop_assert_eq!(b.category, a.category);
            prop_assert_eq!(b.server_country, a.server_country);
            prop_assert_eq!(b.anycast, a.anycast);
            prop_assert_eq!(b.geo_excluded, a.geo_excluded);
        }
        prop_assert_eq!(loaded.crawl_failures, ds.crawl_failures);
        Ok(())
    });
}

/// Hostile metadata: any value that does not fit the target counter must
/// be a typed import error naming the field — never a silent wrap (the
/// old `as u32` import truncated `u32::MAX + 1` to `0`).
#[test]
fn export_metadata_overflow_is_rejected_with_field_name() {
    use govhost_core::export_csv_full;
    use govhost_core::import_csv_full;

    let base = export_csv(&dataset_of(&[("a".to_string(), None, 0)]));
    let attempt = |meta: &str| {
        let csv = govhost_core::DatasetCsv { meta: meta.to_string(), ..base.clone() };
        import_csv_full(&csv)
    };

    let overflow = (u32::MAX as u64) + 1;
    let e = attempt(&format!("crawl_failures,{overflow}\n")).unwrap_err();
    assert!(
        e.to_string().contains("crawl_failures out of range for u32"),
        "error must name the field: {e}"
    );
    let e = attempt(&format!("crawl_causes,0,{overflow},0\n")).unwrap_err();
    assert!(e.to_string().contains("crawl_causes.not_found out of range"), "{e}");
    let e = attempt(&format!("crawl_causes,{overflow},0,0\n")).unwrap_err();
    assert!(e.to_string().contains("crawl_causes.geo_blocked out of range"), "{e}");
    // Values beyond u64 fail at the number parse, also with row context.
    let e = attempt("geo_excluded,18446744073709551616\n").unwrap_err();
    assert!(e.to_string().contains("bad metadata number"), "{e}");
    // The boundary value itself still imports.
    let (ds, _) = attempt(&format!("crawl_failures,{}\n", u32::MAX)).expect("u32::MAX fits");
    assert_eq!(ds.crawl_failures, u32::MAX);

    // A full export with its report still round-trips after the fix.
    let real = dataset_of(&[("b".to_string(), None, 7)]);
    let csv = export_csv_full(&real, None);
    assert!(import_csv_full(&csv).is_ok());
}

/// Property form: every u32-targeted metadata field rejects every
/// overflowing value, at any magnitude above the boundary.
#[test]
fn export_metadata_overflow_rejected_for_arbitrary_values() {
    use govhost_core::import_csv_full;
    let base = export_csv(&dataset_of(&[("c".to_string(), None, 1)]));
    let overflowing = gens::u64_any().map(|v| (v | (1u64 << 32)).max((u32::MAX as u64) + 1));
    cfg("export_metadata_overflow_rejected_for_arbitrary_values").run(&overflowing, |v| {
        let meta = format!("crawl_failures,{v}\n");
        let csv = govhost_core::DatasetCsv { meta, ..base.clone() };
        let e = import_csv_full(&csv).map(|_| ()).expect_err("overflow must not import");
        prop_assert_eq!(e.row, 1);
        if !e.message.contains("crawl_failures out of range for u32") {
            return Err(format!("error must name the field, got: {}", e.message));
        }
        Ok(())
    });
}

/// URL rows whose byte counts sum past `u64::MAX` — within one country
/// or across the dataset — are a typed error naming the row that
/// overflowed, never a panic or a wrapped total.
#[test]
fn import_rejects_byte_totals_that_overflow() {
    use govhost_core::import_csv_full;
    let rows = [("a".to_string(), None, 0), ("b".to_string(), None, 4)];
    let base = export_csv(&dataset_of(&rows));
    let attempt = |a: u64, b: u64| {
        // Host 0 is MX, host 1 is BR (see `decode_host`).
        let urls = format!(
            "{}https://a.h0.gov/x,a.h0.gov,{a}\nhttps://b.h1.gov/y,b.h1.gov,{b}\n",
            base.urls
        );
        import_csv_full(&govhost_core::DatasetCsv { urls, ..base.clone() })
    };

    // One country's total overflows.
    let per_country = format!(
        "{}https://a.h0.gov/x,a.h0.gov,{max}\nhttps://a.h0.gov/y,a.h0.gov,{max}\n",
        base.urls,
        max = u64::MAX
    );
    let e = import_csv_full(&govhost_core::DatasetCsv { urls: per_country, ..base.clone() })
        .map(|_| ())
        .expect_err("an overflowing country total must not import");
    assert_eq!(e.row, 3, "{e}");
    assert!(e.message.contains("overflow"), "{e}");

    // Two countries that each fit, but whose sum does not.
    let half = u64::MAX / 2 + 1;
    let e = attempt(half, half).map(|_| ()).expect_err("an overflowing dataset total");
    assert_eq!(e.row, 3, "{e}");
    assert!(e.message.contains("overflow"), "{e}");

    // The boundary itself still imports, with exact totals.
    let (ds, _) = attempt(u64::MAX - 1, 1).expect("a total of u64::MAX fits");
    let mx: govhost_types::CountryCode = "MX".parse().unwrap();
    assert_eq!(ds.per_country[&mx].bytes, u64::MAX - 1);
}

/// Text for a hostile CSV document: mostly the characters the record
/// reader and the row parsers branch on, sometimes arbitrary Unicode or
/// arbitrary bytes (lossily decoded, as a file read would be).
fn arb_text() -> Gen<String> {
    gens::one_of(vec![
        gens::string_of(",\"\n\r 0123456789.:/-_abcghopstuvwxyzMXUSBR", 0, 120),
        gens::unicode_string(0, 40),
        gens::vec(gens::u64_range(0, 256), 0, 120).map(|v| {
            String::from_utf8_lossy(&v.iter().map(|b| *b as u8).collect::<Vec<_>>()).into_owned()
        }),
    ])
}

/// A hostile document, half the time behind its valid header so the
/// row parsers (not only the header check) see the garbage.
fn arb_document(header: &'static str) -> Gen<String> {
    gens::bool_any().zip(arb_text()).map(move |(with_header, body)| {
        if with_header {
            format!("{header}\n{body}")
        } else {
            body
        }
    })
}

/// Whatever the input, import returns — a dataset or a row-numbered
/// error — and never panics.
fn import_never_panics(csv: &govhost_core::DatasetCsv) -> Result<(), String> {
    match govhost_core::import_csv_full(csv) {
        Ok(_) => Ok(()),
        Err(e) if e.row >= 1 => Ok(()),
        Err(e) => Err(format!("row numbers are 1-based, got {e}")),
    }
}

#[test]
fn import_never_panics_on_arbitrary_documents() {
    let hosts_header = "hostname,country,method,ip,asn,org,registration,state_operated,\
                        category,server_country,anycast,geo_excluded";
    let docs =
        gens::zip3(arb_document(hosts_header), arb_document("url,hostname,bytes"), arb_text());
    cfg("import_never_panics_on_arbitrary_documents").run(&docs, |(hosts, urls, meta)| {
        import_never_panics(&govhost_core::DatasetCsv {
            hosts: hosts.clone(),
            urls: urls.clone(),
            meta: meta.clone(),
        })
    });
}

/// A valid export with URL rows and a full metadata section, the seed
/// the mutation property edits.
fn valid_export() -> govhost_core::DatasetCsv {
    let rows: Vec<(String, Option<String>, u64)> = (0..4u64)
        .map(|i| (format!("n{i}"), Some(format!("Org {i}, Inc.")), i * 0x0123_4567_89ab_cdef))
        .collect();
    let ds = dataset_of(&rows);
    let mut csv = govhost_core::export_csv_full(&ds, Some(&Default::default()));
    for (i, h) in ds.hosts.iter().enumerate() {
        csv.urls.push_str(&format!("https://{0}/p{i},{0},{1}\n", h.hostname, 1000 + i));
    }
    csv.meta.push_str("quarantined,MX,crawl,landing page unreachable\n");
    csv
}

#[test]
fn import_never_panics_on_mutated_exports() {
    let base = valid_export();
    import_never_panics(&base).expect("the seed imports");
    assert!(govhost_core::import_csv_full(&base).is_ok(), "the seed is valid");
    // (document, byte position, edit kind, replacement byte), repeated.
    let edit = gens::zip4(
        gens::u64_range(0, 3),
        gens::u64_any(),
        gens::u64_range(0, 4),
        gens::select(b",\"\n\r0x9-.:/ Z\xff".to_vec()),
    );
    let edits = gens::vec(edit, 1, 6);
    cfg("import_never_panics_on_mutated_exports").run(&edits, |edits| {
        let mut docs = [
            base.hosts.clone().into_bytes(),
            base.urls.clone().into_bytes(),
            base.meta.clone().into_bytes(),
        ];
        for &(doc, pos, kind, byte) in edits {
            let doc = &mut docs[doc as usize];
            let at = (pos % (doc.len() as u64 + 1)) as usize;
            match kind {
                0 => doc.insert(at, byte),
                1 if at < doc.len() => {
                    doc.remove(at);
                }
                2 if at < doc.len() => doc[at] = byte,
                _ => doc.truncate(at),
            }
        }
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        import_never_panics(&govhost_core::DatasetCsv {
            hosts: text(&docs[0]),
            urls: text(&docs[1]),
            meta: text(&docs[2]),
        })
    });
}
