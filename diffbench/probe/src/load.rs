//! The `serve_mixed` traffic: a seeded request plan over generated
//! inputs, a closed-loop HTTP client (each connection sends its next
//! request only after the previous answer), and the checks on what the
//! server answered.

use corpus::{Corpus, GeneratorConfig};
use diffcode::{change_fingerprint, DiffCode};
use serve::json::{self, Json};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offset from the workload seed to the seed of the corpus whose
/// changes the server has never seen.
const NOVEL_SEED_OFFSET: u64 = 0x9E37_79B9;

/// One planned request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// `/mine` on the i-th change of the primed corpus (a cache hit).
    Primed(usize),
    /// `/mine` on the i-th novel change (a miss, then an append + flush).
    Novel(usize),
    /// `/check` on the HEAD files of project p.
    Check(usize),
}

impl Req {
    pub fn kind(self) -> &'static str {
        match self {
            Req::Primed(_) => "mine_primed",
            Req::Novel(_) => "mine_novel",
            Req::Check(_) => "check",
        }
    }
}

/// SplitMix64: a small, seedable generator for the request mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The inputs behind a plan: the primed corpus (the one the server's
/// cache was primed with) and the novel changes, which share no content
/// fingerprint with it or with each other.
pub struct Plan {
    seed: u64,
    primed: Corpus,
    primed_pairs: Vec<(usize, usize, usize)>,
    novel: Vec<(String, String)>,
}

impl Plan {
    pub fn new(seed: u64, projects: usize, primed: Corpus) -> Plan {
        let mut primed_pairs = Vec::new();
        let mut seen = HashSet::new();
        for (p, project) in primed.projects.iter().enumerate() {
            for (c, commit) in project.commits.iter().enumerate() {
                for (f, file) in commit.changes.iter().enumerate() {
                    if let (Some(old), Some(new)) = (&file.old, &file.new) {
                        primed_pairs.push((p, c, f));
                        seen.insert(change_fingerprint(old, new));
                    }
                }
            }
        }
        let novel_corpus = corpus::generate(&GeneratorConfig::small(
            projects,
            seed.wrapping_add(NOVEL_SEED_OFFSET),
        ));
        let mut novel = Vec::new();
        for change in novel_corpus.code_changes() {
            if seen.insert(change_fingerprint(change.old, change.new)) {
                novel.push((change.old.to_owned(), change.new.to_owned()));
            }
        }
        Plan {
            seed,
            primed,
            primed_pairs,
            novel,
        }
    }

    /// The request sequence: about 50% primed `/mine`, 25% novel
    /// `/mine` (each novel change sent once) and 25% `/check`. Ends when
    /// the novel changes run out.
    pub fn requests(&self) -> impl Iterator<Item = Req> + '_ {
        let mut rng = Rng(self.seed ^ 0x5EED_5E12_7E00_0000);
        let mut next_novel = 0usize;
        std::iter::from_fn(move || {
            let req = match rng.below(4) {
                0 | 1 => Req::Primed(rng.below(self.primed_pairs.len())),
                2 => {
                    next_novel += 1;
                    Req::Novel(next_novel - 1)
                }
                _ => Req::Check(rng.below(self.primed.projects.len())),
            };
            match req {
                Req::Novel(i) if i >= self.novel.len() => None,
                req => Some(req),
            }
        })
    }

    /// Code changes in the primed corpus.
    pub fn primed_changes(&self) -> usize {
        self.primed_pairs.len()
    }

    /// The `(old, new)` sources of a `/mine` request.
    pub fn pair(&self, req: &Req, i: usize) -> (&str, &str) {
        match req {
            Req::Novel(_) => (&self.novel[i].0, &self.novel[i].1),
            _ => {
                let (p, c, f) = self.primed_pairs[i];
                let file = &self.primed.projects[p].commits[c].changes[f];
                (
                    file.old.as_deref().unwrap_or_default(),
                    file.new.as_deref().unwrap_or_default(),
                )
            }
        }
    }

    /// The files of project `p` as of its last commit.
    pub fn head_files(&self, p: usize) -> Vec<(String, String)> {
        let mut head = BTreeMap::new();
        for commit in &self.primed.projects[p].commits {
            for file in &commit.changes {
                match &file.new {
                    Some(new) => head.insert(file.path.clone(), new.clone()),
                    None => head.remove(&file.path),
                };
            }
        }
        head.into_iter().collect()
    }

    fn body(&self, req: &Req) -> (&'static str, String) {
        let s = |v: &str| Json::Str(v.to_owned());
        match *req {
            Req::Primed(i) | Req::Novel(i) => {
                let (old, new) = self.pair(req, i);
                let body = Json::Obj(vec![("old".into(), s(old)), ("new".into(), s(new))]);
                ("/mine", body.render())
            }
            Req::Check(p) => {
                let files = self
                    .head_files(p)
                    .into_iter()
                    .map(|(name, source)| {
                        Json::Obj(vec![
                            ("name".into(), s(&name)),
                            ("source".into(), s(&source)),
                        ])
                    })
                    .collect();
                (
                    "/check",
                    Json::Obj(vec![("files".into(), Json::Arr(files))]).render(),
                )
            }
        }
    }
}

/// One HTTP/1.1 request on a fresh connection (the server closes every
/// connection after its answer). Status 0 is a connection error.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);
        let status = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = text
            .split_once("\r\n\r\n")
            .map_or_else(String::new, |(_, b)| b.to_owned());
        Ok((status, body))
    };
    attempt().unwrap_or((0, String::new()))
}

/// One answered request of the closed loop.
pub struct Sample {
    pub req: Req,
    pub status: u16,
    pub latency: Duration,
    pub body: String,
}

/// Drives the plan over `connections` closed-loop connections until
/// `seconds` pass or the plan ends. Returns the samples in plan order
/// and the wall-clock of the loop.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    connections: usize,
    seconds: f64,
) -> (Vec<Sample>, f64) {
    let reqs: Vec<Req> = plan.requests().collect();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(reqs.len()));
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= reqs.len() || Instant::now() >= deadline {
                        break;
                    }
                    let (path, body) = plan.body(&reqs[i]);
                    let sent = Instant::now();
                    let (status, body) = send(addr, "POST", path, &body);
                    mine.push((
                        i,
                        Sample {
                            req: reqs[i],
                            status,
                            latency: sent.elapsed(),
                            body,
                        },
                    ));
                }
                samples
                    .lock()
                    .expect("a client thread panicked while holding the samples")
                    .extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = samples
        .into_inner()
        .expect("a client thread panicked while holding the samples");
    samples.sort_by_key(|(i, _)| *i);
    (samples.into_iter().map(|(_, s)| s).collect(), elapsed)
}

fn field<'a>(body: &'a Json, key: &str) -> Option<&'a str> {
    body.get(key).and_then(Json::as_str)
}

/// Checks one answered request against what the server must have
/// said. Failed requests (non-200) are counted elsewhere, not here.
pub fn check_sample(
    plan: &Plan,
    sample: &Sample,
    expected_violations: &mut HashMap<usize, usize>,
) -> Result<(), String> {
    if sample.status != 200 {
        return Ok(());
    }
    let body = json::parse(&sample.body).map_err(|e| format!("response is not JSON: {e}"))?;
    match sample.req {
        Req::Primed(i) | Req::Novel(i) => {
            let (want_cache, kind) = match sample.req {
                Req::Primed(_) => ("hit", "primed"),
                _ => ("miss", "novel"),
            };
            let (old, new) = plan.pair(&sample.req, i);
            if field(&body, "fingerprint") != Some(change_fingerprint(old, new).as_str()) {
                return Err(format!("{kind} /mine #{i}: wrong fingerprint"));
            }
            if field(&body, "cache") != Some(want_cache) {
                return Err(format!(
                    "{kind} /mine #{i}: cache {:?}, want {want_cache}",
                    field(&body, "cache")
                ));
            }
            if field(&body, "verdict") != Some("mined") {
                return Err(format!(
                    "{kind} /mine #{i}: verdict {:?}",
                    field(&body, "verdict")
                ));
            }
        }
        Req::Check(p) => {
            let want = *expected_violations.entry(p).or_insert_with(|| {
                diffcode::cli::render_check(&plan.head_files(p), rules::ProjectContext::plain()).1
            });
            let got = body.get("violated_rules").and_then(Json::as_num);
            if got != Some(want as f64) {
                return Err(format!(
                    "/check project {p}: violated_rules {got:?}, want {want}"
                ));
            }
        }
    }
    Ok(())
}

/// The paper's Figure 2 change through `/mine`: the verdict must be
/// `mined`, carry exactly the tuples in-process mining derives, and show
/// the known answer of `tests/figure2.rs` — `getInstance("AES")` before,
/// CBC with an explicit `IvParameterSpec` after.
pub fn check_figure2(addr: SocketAddr) -> Result<(), String> {
    use corpus::fixtures::{FIGURE2_NEW, FIGURE2_OLD};
    let body = Json::Obj(vec![
        ("old".into(), Json::Str(FIGURE2_OLD.to_owned())),
        ("new".into(), Json::Str(FIGURE2_NEW.to_owned())),
    ]);
    let (status, text) = send(addr, "POST", "/mine", &body.render());
    if status != 200 {
        return Err(format!("figure 2 /mine answered {status}"));
    }
    let got = json::parse(&text).map_err(|e| format!("figure 2 response: {e}"))?;
    if field(&got, "verdict") != Some("mined") {
        return Err("figure 2 change was not mined".to_owned());
    }
    let tuples: Vec<&str> = got
        .get("tuples")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let (outcome, _) = DiffCode::new().process_pair_cached(FIGURE2_OLD, FIGURE2_NEW, &[], None);
    let want = diffcode::cli::outcome_digest_parts(&outcome);
    if tuples != want {
        return Err("figure 2 tuples differ from in-process mining".to_owned());
    }
    let known = tuples.iter().any(|t| {
        t.starts_with("Cipher|")
            && t.contains("Cipher getInstance arg1:AES;")
            && t.contains("Cipher getInstance arg1:AES/CBC/PKCS5Padding")
            && t.contains("Cipher init arg3:IvParameterSpec")
    });
    if !known {
        return Err("figure 2 tuples lack the paper's known answer".to_owned());
    }
    Ok(())
}
