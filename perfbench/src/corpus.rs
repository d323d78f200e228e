//! Workload inputs, all derived from the run's `--seed`: a books-style
//! corpus from `ltm_datagen` (the paper's §6 setting) and the request
//! traffic drawn from it.

use ltm_datagen::books::{self, BookConfig};

/// A small deterministic generator (SplitMix64), so the traffic depends
/// on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One ingest row: `(entity, attribute, source)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub entity: String,
    pub attr: String,
    pub source: String,
}

/// A generator-labeled fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    pub entity: String,
    pub attr: String,
    pub truth: bool,
}

/// A generated books corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Every row, shuffled by the seed.
    pub rows: Vec<Row>,
    /// The labeled facts (every fact of the labeled books).
    pub labels: Vec<Label>,
    /// Seller names, indexed by generator source id.
    pub sources: Vec<String>,
    /// Rows listed per seller: the popularity that query claims are
    /// drawn by.
    pub source_rows: Vec<usize>,
    /// Definition-3 claims of the whole corpus (positive and negative).
    pub claims: usize,
    pub facts: usize,
}

/// Books in a corpus of about `claims` Definition-3 claims, at the
/// generator's default coverage (about 47 claims per book).
pub fn books_for_claims(claims: usize) -> usize {
    (claims / 47).max(50)
}

impl Corpus {
    /// Generates a books corpus of `num_books` books from 879 sellers
    /// (the paper's seller count); 200 books are labeled.
    pub fn books(num_books: usize, seed: u64) -> Corpus {
        let generated = books::generate(&BookConfig {
            num_books,
            labeled_entities: 200.min(num_books),
            seed,
            ..BookConfig::default()
        });
        let data = &generated.dataset;
        let raw = &data.raw;
        let mut rows: Vec<Row> = raw
            .iter_named()
            .map(|(e, a, s)| Row {
                entity: e.to_owned(),
                attr: a.to_owned(),
                source: s.to_owned(),
            })
            .collect();
        Rng::new(seed).shuffle(&mut rows);
        let labels = data
            .truth
            .iter()
            .map(|(f, truth)| {
                let fact = data.claims.fact(f);
                Label {
                    entity: raw.entity_name(fact.entity).to_owned(),
                    attr: raw.attr_name(fact.attr).to_owned(),
                    truth,
                }
            })
            .collect();
        let sources: Vec<String> = (0..raw.num_sources())
            .map(|s| {
                raw.source_name(ltm_model::SourceId::from_usize(s))
                    .to_owned()
            })
            .collect();
        let mut source_rows = vec![0; sources.len()];
        for row in raw.rows() {
            source_rows[row.source.index()] += 1;
        }
        Corpus {
            rows,
            labels,
            sources,
            source_rows,
            claims: data.claims.num_claims(),
            facts: data.claims.num_facts(),
        }
    }

    /// Splits the rows into a bulk-load prefix and a streamed tail of
    /// at least `tail_rows` rows. The tail holds every row of a
    /// seed-chosen set of sellers (so they start covering books that
    /// already have facts, and Definition-3 negatives dirty old facts),
    /// topped up with rows of other sellers.
    pub fn split_tail(&self, tail_rows: usize, seed: u64) -> (Vec<Row>, Vec<Row>) {
        let mut order: Vec<usize> = (0..self.sources.len()).collect();
        Rng::new(seed ^ 0x7A11).shuffle(&mut order);
        let mut late = vec![false; self.sources.len()];
        let mut held = 0;
        for s in order {
            // Half the tail comes from late sellers, the rest from sellers
            // already present.
            if held + self.source_rows[s] > tail_rows / 2 {
                continue;
            }
            late[s] = true;
            held += self.source_rows[s];
        }
        let index: std::collections::HashMap<&str, usize> = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        let is_late = |r: &Row| index.get(r.source.as_str()).is_some_and(|&s| late[s]);
        let (mut tail, mut bulk): (Vec<Row>, Vec<Row>) =
            self.rows.iter().cloned().partition(is_late);
        let top_up = tail_rows.saturating_sub(tail.len()).min(bulk.len());
        tail.extend(bulk.drain(bulk.len() - top_up..));
        Rng::new(seed ^ 0x7A12).shuffle(&mut tail);
        (bulk, tail)
    }
}

/// One `/query` body: claims by seller index, and whether it asks for
/// every shadow method.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub claims: Vec<(usize, bool)>,
    pub all_methods: bool,
}

impl Query {
    /// The request path.
    pub fn path(&self) -> &'static str {
        if self.all_methods {
            "/query?methods=all"
        } else {
            "/query"
        }
    }

    /// The JSON claim array, e.g. `[["seller-0001",true],…]`.
    pub fn claims_json(&self, sources: &[String]) -> String {
        let items: Vec<String> = self
            .claims
            .iter()
            .map(|(s, o)| format!("[\"{}\",{o}]", sources[*s]))
            .collect();
        format!("[{}]", items.join(","))
    }

    /// The request body.
    pub fn body(&self, sources: &[String]) -> String {
        format!("{{\"claims\":{}}}", self.claims_json(sources))
    }
}

/// `n` queries of 2–20 distinct sellers each, drawn with probability
/// proportional to their row counts; about 1 in 20 asks for
/// `?methods=all`. Sellers that list a book mostly assert its facts, so
/// observations are `true` with probability 0.7.
pub fn queries(corpus: &Corpus, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x0E12);
    let total: usize = corpus.source_rows.iter().sum();
    let cumulative: Vec<usize> = corpus
        .source_rows
        .iter()
        .scan(0, |acc, &c| {
            *acc += c;
            Some(*acc)
        })
        .collect();
    (0..n)
        .map(|_| {
            let k = 2 + rng.below(19);
            let mut claims: Vec<(usize, bool)> = Vec::with_capacity(k);
            while claims.len() < k {
                let pick = rng.below(total);
                let s = cumulative.partition_point(|&c| c <= pick);
                if claims.iter().all(|(t, _)| *t != s) {
                    claims.push((s, rng.unit() < 0.7));
                }
            }
            Query {
                claims,
                all_methods: rng.below(20) == 0,
            }
        })
        .collect()
}

/// The `/claims` body for `rows`.
pub fn claims_body(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| format!("[\"{}\",\"{}\",\"{}\"]", r.entity, r.attr, r.source))
        .collect();
    format!("{{\"triples\":[{}]}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_produces_the_same_traffic() {
        let a = Corpus::books(60, 11);
        let b = Corpus::books(60, 11);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.labels, b.labels);
        assert_eq!(queries(&a, 11, 200), queries(&b, 11, 200));
        assert_eq!(a.split_tail(100, 11), b.split_tail(100, 11));
        let c = Corpus::books(60, 12);
        assert_ne!(a.rows, c.rows);
        assert_ne!(queries(&a, 11, 200), queries(&a, 12, 200));
    }

    #[test]
    fn queries_have_two_to_twenty_distinct_sellers() {
        let corpus = Corpus::books(60, 3);
        let qs = queries(&corpus, 3, 2_000);
        for q in &qs {
            assert!((2..=20).contains(&q.claims.len()));
            let mut s: Vec<usize> = q.claims.iter().map(|c| c.0).collect();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), q.claims.len());
        }
        let all = qs.iter().filter(|q| q.all_methods).count();
        assert!(
            (50..150).contains(&all),
            "{all} of 2000 ask for every method"
        );
    }

    #[test]
    fn tail_split_keeps_every_row_once() {
        let corpus = Corpus::books(80, 5);
        let (bulk, tail) = corpus.split_tail(400, 5);
        assert!(tail.len() >= 400);
        assert_eq!(bulk.len() + tail.len(), corpus.rows.len());
        let mut all: Vec<&Row> = bulk.iter().chain(&tail).collect();
        all.sort_by(|a, b| (&a.entity, &a.attr, &a.source).cmp(&(&b.entity, &b.attr, &b.source)));
        all.dedup();
        assert_eq!(all.len(), corpus.rows.len());
    }
}
