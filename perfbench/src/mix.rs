//! Seeded input generation: the benchmark's own PRNG, a Zipf sampler,
//! and the two HTTP request mixes.
//!
//! The generator is deliberately independent of the program's own
//! random streams, so a change to the program's RNG never changes the
//! inputs the benchmark feeds it.
//!
//! What the workload definitions fix: a quarter of slab requests are
//! conditional; queries are a seeded Zipf draw over more keys than the
//! 128-entry result cache, some in non-canonical spellings. Everything
//! else here is an assumption with no measured govhost traffic behind
//! it, and takes the plainest choice: routes are drawn uniformly, and
//! the Zipf exponent is taken from published web-request traces.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a benchmark seed. Different
    /// stream names give unrelated sequences from the same seed.
    pub fn stream(seed: u64, name: &str) -> Rng {
        Rng(seed ^ fnv1a(name.as_bytes()).rotate_left(17))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// 64-bit FNV-1a, used to key streams and to fingerprint outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A Zipf(`s`) distribution over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One request of a mix: which target, and whether it revalidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Index into the mix's target list.
    pub target: usize,
    /// Send `If-None-Match` with the target's current entity tag.
    pub conditional: bool,
}

/// Share of slab requests sent as conditional GETs (fixed by the
/// workload definition).
pub const CONDITIONAL_SHARE: f64 = 0.25;

/// The prerendered-route mix: the five fixed routes and every
/// `/country/{cc}`, with about a quarter of requests revalidating. Each
/// of the six routes (`/country/{cc}` counting as one) is equally
/// likely, and so is each country of a country page: an assumption.
#[derive(Debug, Clone)]
pub struct SlabMix {
    /// Request targets; the first five are the fixed routes.
    pub targets: Vec<String>,
}

impl SlabMix {
    /// The mix over `countries` (ISO codes as the server spells them).
    pub fn new(countries: &[String]) -> SlabMix {
        let mut targets: Vec<String> = ["/healthz", "/countries", "/flows", "/providers", "/hhi"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        targets.extend(countries.iter().map(|cc| format!("/country/{cc}")));
        SlabMix { targets }
    }

    /// Draw the next request.
    pub fn next(&self, rng: &mut Rng) -> Pick {
        let routes = if self.targets.len() > 5 { 6 } else { 5 };
        let route = rng.below(routes);
        let target = if route < 5 {
            route
        } else {
            5 + rng.below(self.targets.len() - 5)
        };
        Pick {
            target,
            conditional: rng.unit() < CONDITIONAL_SHARE,
        }
    }
}

/// Zipf exponent of the query mix: inside the 0.64-0.83 range that
/// Breslau et al. measured on web proxy request traces ("Web Caching
/// and Zipf-like Distributions: Evidence and Implications", INFOCOM
/// 1999). Borrowed from web traffic, not measured on govhost queries.
pub const QUERY_ZIPF_S: f64 = 0.8;

/// Share of query requests sent in a non-canonical spelling. The
/// workload asks for "some"; a fifth is an assumption.
pub const RESPELL_SHARE: f64 = 0.2;

/// One distinct parameterized query and its spellings: `spellings[0]`
/// is the generator's own order, the others say the same thing
/// differently (reordered parameters, spelled-out defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryKey {
    /// Request targets (`/route?query`), all answering identically.
    pub spellings: Vec<String>,
}

/// The parameterized-query mix: a seeded population of distinct
/// queries drawn by Zipf rank.
#[derive(Debug, Clone)]
pub struct QueryMix {
    /// The population, most popular first.
    pub keys: Vec<QueryKey>,
    zipf: Zipf,
}

/// Region codes the `/countries` and `/flows` scopes accept.
const REGIONS: [&str; 7] = ["NA", "LAC", "ECA", "MENA", "SSA", "SA", "EAP"];

impl QueryMix {
    /// Draw `n` distinct queries. `canonical` maps `(route, query)` to
    /// the server's canonical form (`None` if the server would reject
    /// it); two drafts with the same canonical form are one key.
    pub fn new(
        seed: u64,
        countries: &[String],
        n: usize,
        canonical: impl Fn(&str, &str) -> Option<String>,
    ) -> QueryMix {
        let mut rng = Rng::stream(seed, "query-population");
        let mut seen = std::collections::HashSet::new();
        let mut keys = Vec::with_capacity(n);
        let mut drafts = 0usize;
        while keys.len() < n {
            drafts += 1;
            assert!(
                drafts < n * 100,
                "query space too small for {n} distinct keys"
            );
            let (route, params) = draft(&mut rng, countries, keys.len());
            let raw = join(&params);
            let Some(canon) = canonical(route, &raw) else {
                continue;
            };
            if !seen.insert(format!("{route}?{canon}")) {
                continue;
            }
            let mut spellings = vec![format!("{route}?{raw}")];
            // A reordered spelling, when there is an order to change.
            if params.len() > 1 {
                let mut reordered = params.clone();
                reordered.reverse();
                spellings.push(format!("{route}?{}", join(&reordered)));
            }
            // The canonical form spells out every default.
            if canon != raw {
                spellings.push(format!("{route}?{canon}"));
            }
            keys.push(QueryKey { spellings });
        }
        QueryMix {
            keys,
            zipf: Zipf::new(n, QUERY_ZIPF_S),
        }
    }

    /// Draw the next request: `(key, spelling)`.
    pub fn next(&self, rng: &mut Rng) -> (usize, usize) {
        let key = self.zipf.sample(rng);
        let spellings = self.keys[key].spellings.len();
        let spelling = if spellings > 1 && rng.unit() < RESPELL_SHARE {
            1 + rng.below(spellings - 1)
        } else {
            0
        };
        (key, spelling)
    }
}

fn join(params: &[(&'static str, String)]) -> String {
    params
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("&")
}

fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

fn scope(rng: &mut Rng, countries: &[String]) -> String {
    match rng.below(4) {
        0 => "EU".to_string(),
        1 => pick(rng, &REGIONS).to_string(),
        _ => countries[rng.below(countries.len())].clone(),
    }
}

/// One random query draft for popularity rank `rank`. The route and
/// page size follow from the rank alone, so whichever seed runs, the
/// hottest keys cost about the same; the seed picks the rest. Ranks
/// cycle through the three routes, so each carries about a third of
/// the keys (an assumption), and the page sizes 10, 20 and the default
/// likewise.
fn draft(
    rng: &mut Rng,
    countries: &[String],
    rank: usize,
) -> (&'static str, Vec<(&'static str, String)>) {
    let mut params: Vec<(&'static str, String)> = Vec::new();
    let route = match rank % 3 {
        0 => {
            if rng.below(2) == 0 {
                params.push(("lens", pick(rng, &["served", "registration"]).to_string()));
            }
            match rng.below(3) {
                0 => params.push(("from", scope(rng, countries))),
                1 => params.push(("to", scope(rng, countries))),
                _ => {
                    params.push(("from", scope(rng, countries)));
                    params.push(("to", scope(rng, countries)));
                }
            }
            if rng.below(3) == 0 {
                let category = pick(rng, &["govt_soe", "3p_local", "3p_regional", "3p_global"]);
                params.push(("category", category.to_string()));
            }
            if rng.below(3) == 0 {
                params.push((
                    "min_share",
                    pick(rng, &["0.01", "0.05", "0.1", "0.25"]).to_string(),
                ));
            }
            if rng.below(2) == 0 {
                params.push((
                    "sort",
                    pick(rng, &["urls", "share", "from", "to"]).to_string(),
                ));
            }
            "/flows"
        }
        1 => {
            params.push(("country", countries[rng.below(countries.len())].clone()));
            if rng.below(2) == 0 {
                params.push(("min_countries", (1 + rng.below(5)).to_string()));
            }
            if rng.below(2) == 0 {
                params.push((
                    "sort",
                    pick(rng, &["countries", "asn", "peak_share"]).to_string(),
                ));
            }
            "/providers"
        }
        _ => {
            // Region is always given, so EU joins the regions here to
            // leave room for a third of 1024 distinct keys.
            let region = match rng.below(REGIONS.len() + 1) {
                0 => "EU",
                i => REGIONS[i - 1],
            };
            params.push(("region", region.to_string()));
            params.push((
                "sort",
                pick(rng, &["code", "urls", "bytes", "hhi"]).to_string(),
            ));
            "/countries"
        }
    };
    match (rank / 3) % 3 {
        0 => params.push(("limit", "10".to_string())),
        1 => params.push(("limit", "20".to_string())),
        _ => {} // the default page
    }
    if rng.below(3) == 0 {
        params.push(("offset", pick(rng, &["1", "2", "5", "10"]).to_string()));
    }
    (route, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn countries() -> Vec<String> {
        ["US", "DE", "FR", "BR", "JP", "IN", "ZA", "AU"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn streams_are_deterministic_and_independent() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, "mix");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, "mix");
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, "world");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, QUERY_ZIPF_S);
        let draw = |seed| {
            let mut r = Rng::stream(seed, "zipf");
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|k| *k < 1000));
        let top = a.iter().filter(|k| **k == 0).count();
        let tail = a.iter().filter(|k| **k == 999).count();
        // Rank 0 carries 1 / sum(k^-0.8, k = 1..1000) ~ 6.5% of the
        // mass; rank 999 about 0.026%.
        assert!(top > 1100 && top < 1500, "rank-0 draws: {top}");
        assert!(tail < 20, "rank-999 draws: {tail}");
    }

    #[test]
    fn slab_mix_is_deterministic_with_a_quarter_conditional() {
        let mix = SlabMix::new(&countries());
        let draw = |seed| {
            let mut r = Rng::stream(seed, "slab");
            (0..10_000).map(|_| mix.next(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let conditional = a.iter().filter(|p| p.conditional).count() as f64 / a.len() as f64;
        assert!(
            (conditional - CONDITIONAL_SHARE).abs() < 0.02,
            "{conditional}"
        );
        assert!(a.iter().all(|p| p.target < mix.targets.len()));
        assert!(a.iter().any(|p| p.target >= 5), "country pages are drawn");
    }

    #[test]
    fn query_population_is_deterministic_and_distinct() {
        // Stand-in canonicalizer: sorted parameters.
        let canon = |_: &str, raw: &str| {
            let mut parts: Vec<&str> = raw.split('&').collect();
            parts.sort();
            Some(parts.join("&"))
        };
        let a = QueryMix::new(5, &countries(), 300, canon);
        let b = QueryMix::new(5, &countries(), 300, canon);
        let c = QueryMix::new(6, &countries(), 300, canon);
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.keys, c.keys);
        let mut first: Vec<&str> = a.keys.iter().map(|k| k.spellings[0].as_str()).collect();
        first.sort();
        first.dedup();
        assert_eq!(first.len(), 300);
        let mut r1 = Rng::stream(9, "q");
        let mut r2 = Rng::stream(9, "q");
        for _ in 0..1000 {
            assert_eq!(a.next(&mut r1), b.next(&mut r2));
        }
    }
}
