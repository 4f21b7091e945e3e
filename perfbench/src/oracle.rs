//! The plain oracle every served answer is checked against: a fresh
//! `MappingService` in the load generator's own process, unsharded, with
//! canonicalisation and delta patching off, built from the same upload
//! bytes the server decoded. It runs after the timed phases.

use crate::gen::{Inputs, Read};
use crate::stats::digest;
use gde_core::{Gsm, MappingId, MappingService, Semantics};
use gde_datagraph::{Alphabet, DataGraph};
use gde_dataquery::CompiledQuery;
use gde_server::json::{self, Json};
use gde_server::protocol::{encode_answer, graph_from_json, parse_query};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What a response answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum What {
    Read(usize, bool),
    Batch,
}

/// A response to check: `what` after `gen` deltas of the write script.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub gen: usize,
    pub what: What,
}

/// A response as observed on the wire.
#[derive(Clone, Copy, Debug)]
pub struct Observed {
    pub key: Key,
    pub digest: u64,
    pub len: usize,
}

impl Observed {
    pub fn new(key: Key, body: &[u8]) -> Observed {
        Observed {
            key,
            digest: digest(body),
            len: body.len(),
        }
    }
}

/// Decode a mapping upload the way the server's registration route does:
/// the source graph from its JSON, rule sources over the graph's own
/// alphabet, rule targets over the listed target labels.
pub fn decode_upload(body: &Json) -> Result<(Gsm, DataGraph, Alphabet), String> {
    let source = graph_from_json(body.get("source").ok_or("upload has no source")?)
        .map_err(|e| e.message)?;
    let mut sa = source.alphabet().clone();
    let mut ta = Alphabet::new();
    for l in body
        .get("target_labels")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        ta.intern(l.as_str().ok_or("target label is not a string")?);
    }
    let mut rules = Vec::new();
    for r in body
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("upload has no rules")?
    {
        let text = |k: &str| r.get(k).and_then(Json::as_str).ok_or("rule side missing");
        let src = gde_automata::parse_regex(text("source")?, &mut sa).map_err(|e| e.to_string())?;
        let tgt = gde_automata::parse_regex(text("target")?, &mut ta).map_err(|e| e.to_string())?;
        rules.push((src, tgt));
    }
    let mut gsm = Gsm::new(sa, ta.clone());
    for (s, t) in rules {
        gsm.add_rule(s, t);
    }
    Ok((gsm, source, ta))
}

pub struct Oracle {
    svc: MappingService,
    id: MappingId,
    alphabet: Alphabet,
}

/// The result of checking every observation.
pub struct Verdict {
    pub checked: usize,
    pub distinct: usize,
    /// Responses that differ from the oracle (or that it could not
    /// answer).
    pub mismatches: usize,
    /// The first few reasons.
    pub notes: Vec<String>,
    /// Nodes and edges of the oracle's canonical solution before any
    /// write.
    pub solution_size: (usize, usize),
}

impl Oracle {
    pub fn new(inputs: &Inputs) -> Oracle {
        let body = json::parse(&inputs.upload.body).expect("generated upload is JSON");
        let (gsm, source, alphabet) = decode_upload(&body).expect("generated upload decodes");
        let svc = MappingService::new();
        svc.set_canonicalisation(false);
        svc.set_delta_patching(false);
        let id = svc.register(gsm, source);
        svc.set_shard_count(id, 1).expect("mapping is registered");
        Oracle { svc, id, alphabet }
    }

    fn compile(&mut self, inputs: &Inputs, item: usize) -> CompiledQuery {
        parse_query(
            &inputs.items[item].query.body(Vec::new()),
            &mut self.alphabet,
        )
        .expect("generated query parses")
        .compile()
    }

    /// Check every observation against the oracle's answer for its key.
    /// Each distinct key is answered once; generations are visited in
    /// order, applying the write script as they go.
    pub fn verify(mut self, inputs: &Inputs, observed: &[Observed]) -> Verdict {
        let keys: BTreeSet<Key> = observed.iter().map(|o| o.key).collect();
        let mut compiled: BTreeMap<usize, CompiledQuery> = BTreeMap::new();
        for k in &keys {
            let items: Vec<usize> = match k.what {
                What::Read(i, _) => vec![i],
                What::Batch => inputs.batch.clone(),
            };
            for i in items {
                compiled.entry(i).or_insert_with(|| self.compile(inputs, i));
            }
        }
        let mut notes = Vec::new();
        let mut mismatches = 0;
        let mut note = |msg: String| {
            mismatches += 1;
            if notes.len() < 8 {
                notes.push(msg);
            }
        };
        let mut gen = 0;
        let by_gen: Vec<Vec<Key>> = {
            let max = keys.iter().map(|k| k.gen).max().unwrap_or(0);
            let mut v = vec![Vec::new(); max + 1];
            for k in &keys {
                v[k.gen].push(*k);
            }
            v
        };
        let expected = Mutex::new(BTreeMap::new());
        let solution_size = self
            .svc
            .solution(self.id, Semantics::nulls())
            .map(|p| {
                (
                    p.solution().graph.node_count(),
                    p.solution().graph.edge_count(),
                )
            })
            .unwrap_or_default();
        for (g, gen_keys) in by_gen.iter().enumerate() {
            while gen < g {
                if let Err(e) = self.svc.apply_delta(self.id, &inputs.deltas[gen]) {
                    note(format!("oracle rejected delta {gen}: {e}"));
                }
                gen += 1;
            }
            let next = AtomicUsize::new(0);
            let threads = gde_datagraph::par::max_threads().clamp(1, 2);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(k) = gen_keys.get(i) else { break };
                        let bytes = self.answer(k.what, &compiled, inputs);
                        let got = bytes.map(|b| (digest(&b), b.len()));
                        expected
                            .lock()
                            .expect("no oracle worker panics holding the lock")
                            .insert(*k, got);
                    });
                }
            });
        }
        let expected = expected.into_inner().expect("oracle workers joined");
        for o in observed {
            match expected.get(&o.key) {
                Some(Ok((d, len))) if *d == o.digest && *len == o.len => {}
                Some(Ok((_, len))) => note(format!(
                    "{:?}: {} response bytes differ from the oracle's {len}",
                    o.key, o.len
                )),
                Some(Err(e)) => note(format!("{:?}: oracle failed: {e}", o.key)),
                None => note(format!("{:?}: no oracle answer", o.key)),
            }
        }
        Verdict {
            checked: observed.len(),
            distinct: keys.len(),
            mismatches,
            notes,
            solution_size,
        }
    }

    fn answer(
        &self,
        what: What,
        compiled: &BTreeMap<usize, CompiledQuery>,
        inputs: &Inputs,
    ) -> Result<Vec<u8>, String> {
        let one = |i: usize, boolean: bool| {
            let sem = if boolean {
                Semantics::nulls_boolean()
            } else {
                Semantics::nulls()
            };
            self.svc
                .answer(self.id, &compiled[&i], sem)
                .map(|a| encode_answer(&a))
                .map_err(|e| e.to_string())
        };
        let body = match what {
            What::Read(i, boolean) => one(i, boolean)?,
            What::Batch => Json::obj([(
                "answers",
                Json::Arr(
                    inputs
                        .batch
                        .iter()
                        .map(|&i| one(i, false))
                        .collect::<Result<_, _>>()?,
                ),
            )]),
        };
        Ok(body.encode().into_bytes())
    }
}

/// The oracle key of a read.
pub fn read_key(read: Read, gen: usize) -> Key {
    Key {
        gen,
        what: What::Read(read.item, read.boolean),
    }
}
