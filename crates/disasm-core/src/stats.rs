//! The data-driven statistical model: "statistical properties of data to
//! detect code".
//!
//! An order-2 (bigram) Markov model over coarse opcode classes
//! ([`x86_isa::OpClass`]) plus one extra `Invalid` token. Two models are
//! trained — one on genuine instruction streams, one on linearly-decoded
//! data bytes — and classification uses the per-instruction average
//! log-likelihood ratio between them. Compiler output is sharply non-uniform
//! over opcode-class transitions (push→push→mov…, cmp→jcc, call→mov), while
//! decoded garbage is much flatter and keeps visiting classes real code
//! rarely touches; the LLR separates the two distributions cleanly.

use x86_isa::{decode, OpClass};

/// Alphabet size: all opcode classes plus the `Invalid` token.
const ALPHA: usize = OpClass::COUNT + 1;
/// Index of the `Invalid` token.
const INVALID_TOK: usize = OpClass::COUNT;

/// A token of a linearly decoded class stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassTok {
    /// A valid instruction of the given class.
    Code(OpClass),
    /// An invalid encoding (1 byte consumed).
    Invalid,
}

impl ClassTok {
    fn index(self) -> usize {
        match self {
            ClassTok::Code(c) => c.index(),
            ClassTok::Invalid => INVALID_TOK,
        }
    }
}

/// Linearly decode `bytes` into a class-token stream (used to featurize
/// training data and data-model inputs).
pub fn linear_class_stream(bytes: &[u8]) -> Vec<ClassTok> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match decode(&bytes[pos..]) {
            Ok(inst) => {
                out.push(ClassTok::Code(inst.opclass()));
                pos += inst.len as usize;
            }
            Err(_) => {
                out.push(ClassTok::Invalid);
                pos += 1;
            }
        }
    }
    out
}

/// Accumulates training counts for a [`StatModel`].
#[derive(Debug, Clone)]
pub struct StatModelBuilder {
    code_uni: Vec<u64>,
    code_bi: Vec<u64>,
    data_uni: Vec<u64>,
    data_bi: Vec<u64>,
    code_insts: usize,
    data_tokens: usize,
    code_links: u64,
    code_pairs: u64,
    data_links: u64,
    data_pairs: u64,
    token_budget: u64,
    budget_hit: bool,
}

impl Default for StatModelBuilder {
    fn default() -> Self {
        StatModelBuilder {
            code_uni: vec![0; ALPHA],
            code_bi: vec![0; ALPHA * ALPHA],
            data_uni: vec![0; ALPHA],
            data_bi: vec![0; ALPHA * ALPHA],
            code_insts: 0,
            data_tokens: 0,
            code_links: 0,
            code_pairs: 0,
            data_links: 0,
            data_pairs: 0,
            token_budget: u64::MAX,
            budget_hit: false,
        }
    }
}

impl StatModelBuilder {
    /// New empty builder.
    pub fn new() -> StatModelBuilder {
        StatModelBuilder::default()
    }

    /// Cap the total number of ingested tokens (code instructions plus data
    /// tokens). Additions past the cap are dropped and
    /// [`StatModelBuilder::budget_exhausted`] flips to `true`; the model
    /// still builds from whatever was ingested. `None` removes the cap.
    pub fn set_token_budget(&mut self, budget: Option<u64>) {
        self.token_budget = budget.unwrap_or(u64::MAX);
    }

    /// `true` once an addition was truncated or dropped by the token budget.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_hit
    }

    /// Total tokens ingested so far (code instructions + data tokens).
    pub fn tokens_ingested(&self) -> u64 {
        self.code_insts as u64 + self.data_tokens as u64
    }

    /// Tokens still allowed under the budget.
    fn budget_remaining(&self) -> usize {
        usize::try_from(self.token_budget.saturating_sub(self.tokens_ingested()))
            .unwrap_or(usize::MAX)
    }

    /// Add one genuine instruction-class sequence (e.g. a ground-truth
    /// function body) to the code model.
    pub fn add_code_sequence(&mut self, classes: &[OpClass]) {
        let take = self.budget_remaining().min(classes.len());
        if take < classes.len() {
            self.budget_hit = true;
        }
        let classes = &classes[..take];
        self.code_insts += classes.len();
        for w in classes.windows(2) {
            self.code_bi[w[0].index() * ALPHA + w[1].index()] += 1;
        }
        for &c in classes {
            self.code_uni[c.index()] += 1;
        }
    }

    /// Add one genuine instruction stream (bytes + sorted start offsets),
    /// feeding both the opcode-class model (sequences broken at layout
    /// discontinuities) and the register def-use link rate.
    pub fn add_code_stream(&mut self, text: &[u8], starts: &[u32]) {
        let mut seq: Vec<OpClass> = Vec::new();
        let mut expected: Option<u32> = None;
        for &off in starts {
            let Ok(inst) = decode(&text[off as usize..]) else {
                continue;
            };
            if expected != Some(off) && !seq.is_empty() {
                self.add_code_sequence(&std::mem::take(&mut seq));
            }
            seq.push(inst.opclass());
            expected = Some(off + inst.len as u32);
        }
        if !seq.is_empty() {
            self.add_code_sequence(&seq);
        }
        let (links, pairs) = crate::behavior::count_links(text, starts);
        self.code_links += links;
        self.code_pairs += pairs;
    }

    /// Add raw non-code bytes to the data model (linearly decoded), feeding
    /// both the opcode-class model and the def-use link rate.
    pub fn add_data_bytes(&mut self, bytes: &[u8]) {
        let toks = linear_class_stream(bytes);
        self.add_data_tokens(&toks);
        // def-use links over the linear decode of the data
        let mut starts = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            match decode(&bytes[pos..]) {
                Ok(inst) => {
                    starts.push(pos as u32);
                    pos += inst.len as usize;
                }
                Err(_) => pos += 1,
            }
        }
        let (links, pairs) = crate::behavior::count_links(bytes, &starts);
        self.data_links += links;
        self.data_pairs += pairs;
    }

    /// Add a pre-tokenized data stream to the data model.
    pub fn add_data_tokens(&mut self, toks: &[ClassTok]) {
        let take = self.budget_remaining().min(toks.len());
        if take < toks.len() {
            self.budget_hit = true;
        }
        let toks = &toks[..take];
        self.data_tokens += toks.len();
        for w in toks.windows(2) {
            self.data_bi[w[0].index() * ALPHA + w[1].index()] += 1;
        }
        for &t in toks {
            self.data_uni[t.index()] += 1;
        }
    }

    /// Number of code instructions observed so far.
    pub fn code_instructions(&self) -> usize {
        self.code_insts
    }

    /// Number of data tokens observed so far.
    pub fn data_tokens(&self) -> usize {
        self.data_tokens
    }

    /// Finalize into a smoothed model (Laplace add-one).
    pub fn build(self) -> StatModel {
        let log_probs = |uni: &[u64], bi: &[u64]| {
            let mut log_uni = vec![0f64; ALPHA];
            let total: u64 = uni.iter().sum();
            for i in 0..ALPHA {
                log_uni[i] = (((uni[i] + 1) as f64) / ((total + ALPHA as u64) as f64)).ln();
            }
            let mut log_bi = vec![0f64; ALPHA * ALPHA];
            for prev in 0..ALPHA {
                let row_total: u64 = bi[prev * ALPHA..(prev + 1) * ALPHA].iter().sum();
                for cur in 0..ALPHA {
                    let c = bi[prev * ALPHA + cur];
                    log_bi[prev * ALPHA + cur] =
                        (((c + 1) as f64) / ((row_total + ALPHA as u64) as f64)).ln();
                }
            }
            (log_uni, log_bi)
        };
        let (code_uni, code_bi) = log_probs(&self.code_uni, &self.code_bi);
        let (data_uni, data_bi) = log_probs(&self.data_uni, &self.data_bi);
        // def-use link rates, Laplace-smoothed; only trusted with enough pairs
        let rate = |links: u64, pairs: u64| (links + 1) as f64 / (pairs + 2) as f64;
        let defuse = (self.code_pairs >= 64 && self.data_pairs >= 64).then(|| {
            (
                rate(self.code_links, self.code_pairs),
                rate(self.data_links, self.data_pairs),
            )
        });
        StatModel {
            code_uni,
            code_bi,
            data_uni,
            data_bi,
            defuse,
            trained_code: self.code_insts,
            trained_data: self.data_tokens,
        }
    }
}

/// A trained code-vs-data statistical model.
#[derive(Debug, Clone)]
pub struct StatModel {
    code_uni: Vec<f64>,
    code_bi: Vec<f64>,
    data_uni: Vec<f64>,
    data_bi: Vec<f64>,
    /// (code link rate, data link rate) of register def-use pairs, when
    /// enough pairs were observed during training.
    defuse: Option<(f64, f64)>,
    trained_code: usize,
    trained_data: usize,
}

impl StatModel {
    /// Log-likelihood ratio (code vs data) of a single class.
    pub fn llr_single(&self, c: OpClass) -> f64 {
        self.code_uni[c.index()] - self.data_uni[c.index()]
    }

    /// Log-likelihood ratio of the transition `prev → cur`.
    pub fn llr_pair(&self, prev: OpClass, cur: OpClass) -> f64 {
        self.code_bi[prev.index() * ALPHA + cur.index()]
            - self.data_bi[prev.index() * ALPHA + cur.index()]
    }

    /// Average per-instruction LLR of a class sequence. Positive ⇒
    /// code-like, negative ⇒ data-like. Empty sequences score 0.
    pub fn score_chain(&self, classes: &[OpClass]) -> f64 {
        match classes.len() {
            0 => 0.0,
            1 => self.llr_single(classes[0]),
            n => {
                let mut total = self.llr_single(classes[0]);
                for w in classes.windows(2) {
                    total += self.llr_pair(w[0], w[1]);
                }
                total / n as f64
            }
        }
    }

    /// Per-pair log-likelihood ratio of a def-use observation (`linked` or
    /// not). Zero when the def-use rates were not trained.
    pub fn llr_defuse(&self, linked: bool) -> f64 {
        match self.defuse {
            Some((pc, pd)) => {
                if linked {
                    (pc / pd).ln()
                } else {
                    ((1.0 - pc) / (1.0 - pd)).ln()
                }
            }
            None => 0.0,
        }
    }

    /// Average per-instruction def-use LLR of a chain, given its observed
    /// `(links, pairs)` counts. Zero when untrained or no pairs.
    pub fn defuse_chain_score(&self, links: u64, pairs: u64) -> f64 {
        if pairs == 0 || self.defuse.is_none() {
            return 0.0;
        }
        let s =
            links as f64 * self.llr_defuse(true) + (pairs - links) as f64 * self.llr_defuse(false);
        s / (pairs + 1) as f64
    }

    /// `true` if the def-use component was trained.
    pub fn has_defuse(&self) -> bool {
        self.defuse.is_some()
    }

    /// Number of instructions the code model was trained on.
    pub fn trained_code_instructions(&self) -> usize {
        self.trained_code
    }

    /// Number of tokens the data model was trained on.
    pub fn trained_data_tokens(&self) -> usize {
        self.trained_data
    }

    /// `true` if the training corpora are large enough to trust
    /// (heuristic floor used by the self-training fallback).
    pub fn is_adequately_trained(&self) -> bool {
        self.trained_code >= 64 && self.trained_data >= 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-made corpus: "code" uses prologue/mov/ret transitions,
    /// "data" is a deterministic byte soup.
    fn toy_model() -> StatModel {
        let mut b = StatModelBuilder::new();
        let seq = [
            OpClass::Push,
            OpClass::MovRegReg,
            OpClass::AluImm,
            OpClass::MovStore,
            OpClass::MovLoad,
            OpClass::TestCmp,
            OpClass::CondJmp,
            OpClass::CallDirect,
            OpClass::Pop,
            OpClass::Ret,
        ];
        for _ in 0..50 {
            b.add_code_sequence(&seq);
        }
        let mut x: u64 = 99;
        let junk: Vec<u8> = (0..4096)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 32) as u8
            })
            .collect();
        b.add_data_bytes(&junk);
        b.build()
    }

    #[test]
    fn code_scores_above_data() {
        let m = toy_model();
        let code_like = [
            OpClass::Push,
            OpClass::MovRegReg,
            OpClass::AluImm,
            OpClass::MovStore,
            OpClass::Ret,
        ];
        let data_like = [
            OpClass::X87,
            OpClass::Priv,
            OpClass::StringOp,
            OpClass::Priv,
            OpClass::X87,
        ];
        assert!(m.score_chain(&code_like) > 0.0);
        assert!(m.score_chain(&data_like) < 0.0);
        assert!(m.score_chain(&code_like) > m.score_chain(&data_like));
    }

    #[test]
    fn empty_and_single() {
        let m = toy_model();
        assert_eq!(m.score_chain(&[]), 0.0);
        // unigram score used for singletons
        assert!(m.score_chain(&[OpClass::Push]) > m.score_chain(&[OpClass::Priv]));
    }

    #[test]
    fn linear_stream_tokenizes_invalid() {
        // ret, invalid, nop
        let toks = linear_class_stream(&[0xc3, 0x06, 0x90]);
        assert_eq!(
            toks,
            vec![
                ClassTok::Code(OpClass::Ret),
                ClassTok::Invalid,
                ClassTok::Code(OpClass::Nop)
            ]
        );
    }

    #[test]
    fn builder_counts() {
        let mut b = StatModelBuilder::new();
        b.add_code_sequence(&[OpClass::Nop, OpClass::Ret]);
        b.add_data_bytes(&[0x06, 0x06]);
        assert_eq!(b.code_instructions(), 2);
        assert_eq!(b.data_tokens(), 2);
        let m = b.build();
        assert!(!m.is_adequately_trained());
    }

    #[test]
    fn token_budget_truncates_training() {
        let mut b = StatModelBuilder::new();
        b.set_token_budget(Some(5));
        b.add_code_sequence(&[OpClass::Nop; 4]);
        assert!(!b.budget_exhausted());
        b.add_data_tokens(&[ClassTok::Invalid; 4]);
        assert!(b.budget_exhausted());
        assert_eq!(b.tokens_ingested(), 5);
        assert_eq!(b.code_instructions(), 4);
        assert_eq!(b.data_tokens(), 1);
        // the truncated corpus still builds a usable model
        let m = b.build();
        assert!(m.score_chain(&[OpClass::Nop]).is_finite());
    }

    #[test]
    fn smoothing_keeps_unseen_transitions_finite() {
        let m = toy_model();
        // A transition never seen in either corpus must still score finitely.
        let s = m.llr_pair(OpClass::Cmovcc, OpClass::VexEvex);
        assert!(s.is_finite());
    }
}
