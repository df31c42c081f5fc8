//! Property-based validation of Lemma 1: the (extended) graded agreement
//! satisfies graded consistency, integrity, validity, uniqueness and
//! bounded divergence whenever `|H_r| > 2/3 · |O_r ∪ P₀|`, even against a
//! Byzantine adversary that equivocates and delivers selectively.
//!
//! Each proptest case builds a random block tree, a random honest/Byzantine
//! split satisfying the assumption, random honest inputs, and a random
//! per-recipient Byzantine vote pattern, then checks all five properties
//! over every honest receiver's output.

use proptest::prelude::*;
use st_blocktree::{Block, BlockTree};
use st_ga::{tally, GaOutput, Thresholds};
use st_messages::{Vote, VoteStore};
use st_types::{BlockId, Grade, ProcessId, Round, TxId, View};

const ROUND: Round = Round::new(1);

/// A randomly grown block tree plus the list of all tips (every block).
fn grow_tree(choices: &[u8]) -> (BlockTree, Vec<BlockId>) {
    let mut tree = BlockTree::new();
    let mut ids = vec![BlockId::GENESIS];
    for (i, &c) in choices.iter().enumerate() {
        let parent = ids[c as usize % ids.len()];
        let block = Block::build(
            parent,
            View::new(i as u64 + 1),
            ProcessId::new(c as u32),
            vec![TxId::new(i as u64)],
        );
        ids.push(tree.insert(block).unwrap());
    }
    (tree, ids)
}

struct Execution {
    tree: BlockTree,
    honest_inputs: Vec<(ProcessId, BlockId)>,
    /// Output of each honest receiver.
    outputs: Vec<GaOutput>,
}

/// Runs one GA round: `n_honest` honest voters (all votes delivered to all
/// receivers) and `n_byz` Byzantine voters that send receiver-specific
/// votes chosen by `byz_choice[receiver][byz]`. Receivers are the honest
/// processes.
fn run_ga(
    tree_choices: &[u8],
    n_honest: usize,
    n_byz: usize,
    honest_choice: &[u8],
    byz_choice: &[Vec<u8>],
) -> Execution {
    let (tree, ids) = grow_tree(tree_choices);
    let honest_inputs: Vec<(ProcessId, BlockId)> = (0..n_honest)
        .map(|i| {
            (
                ProcessId::new(i as u32),
                ids[honest_choice[i % honest_choice.len()] as usize % ids.len()],
            )
        })
        .collect();

    let mut outputs = Vec::new();
    for recv in 0..n_honest {
        let mut store = VoteStore::new();
        for &(p, tip) in &honest_inputs {
            store.insert(Vote::new(p, ROUND, tip));
        }
        for b in 0..n_byz {
            let pid = ProcessId::new((n_honest + b) as u32);
            let pick = byz_choice[recv][b] as usize;
            // Byzantine options: vote some block, equivocate, or stay
            // silent toward this receiver.
            match pick % (ids.len() + 2) {
                x if x < ids.len() => {
                    store.insert(Vote::new(pid, ROUND, ids[x]));
                }
                x if x == ids.len() => {
                    // Equivocate: two conflicting-ish votes; the store
                    // discards the sender.
                    store.insert(Vote::new(pid, ROUND, ids[0]));
                    store.insert(Vote::new(pid, ROUND, *ids.last().unwrap()));
                }
                _ => { /* silent toward this receiver */ }
            }
        }
        outputs.push(tally(&tree, &store, ROUND, ROUND, Thresholds::mmr()));
    }
    Execution {
        tree,
        honest_inputs,
        outputs,
    }
}

/// The graded tips of `out`: outputs with no graded descendant. Bounded
/// divergence (Definition 4) allows at most two of them to conflict.
fn maximal_outputs(out: &GaOutput, tree: &BlockTree) -> Vec<BlockId> {
    let blocks: Vec<BlockId> = out.iter().map(|(b, _)| b).collect();
    blocks
        .iter()
        .copied()
        .filter(|&b| {
            !blocks
                .iter()
                .any(|&other| other != b && tree.is_ancestor(b, other))
        })
        .collect()
}

fn check_lemma1(ex: &Execution) -> Result<(), TestCaseError> {
    let tree = &ex.tree;

    // Validity: every honest receiver outputs the longest common prefix of
    // honest inputs with grade 1.
    let lcp = ex
        .honest_inputs
        .iter()
        .map(|&(_, t)| t)
        .reduce(|a, b| tree.lca(a, b).expect("honest inputs are known blocks"))
        .expect("at least one honest input");
    for (i, out) in ex.outputs.iter().enumerate() {
        prop_assert_eq!(
            out.grade_of(lcp),
            Some(Grade::One),
            "validity: receiver {} does not grade-1 the honest LCP {:?}",
            i,
            lcp
        );
    }

    for (i, out) in ex.outputs.iter().enumerate() {
        for (block, grade) in out.iter() {
            // Integrity: some honest process input an extension of the
            // output log.
            prop_assert!(
                ex.honest_inputs
                    .iter()
                    .any(|&(_, t)| tree.is_ancestor(block, t)),
                "integrity: receiver {} output {:?} ({:?}) unsupported by honest inputs",
                i,
                block,
                grade
            );
            if grade == Grade::One {
                // Graded consistency: everyone outputs it with some grade.
                for (j, other) in ex.outputs.iter().enumerate() {
                    prop_assert!(
                        other.grade_of(block).is_some(),
                        "graded consistency: {} grade-1 {:?} but {} outputs nothing for it",
                        i,
                        block,
                        j
                    );
                }
                // Uniqueness: no other receiver grade-1's a conflicting log.
                for (j, other) in ex.outputs.iter().enumerate() {
                    let grade1 = other.iter().filter(|&(_, g)| g == Grade::One);
                    for (other_block, _) in grade1 {
                        prop_assert!(
                            !tree.conflicting(block, other_block),
                            "uniqueness: {} grade-1 {:?} conflicts with {}'s grade-1 {:?}",
                            i,
                            block,
                            j,
                            other_block
                        );
                    }
                }
            }
        }
        // Bounded divergence: at most two maximal conflicting outputs.
        let maximal = maximal_outputs(out, tree);
        prop_assert!(
            maximal.len() <= 2,
            "bounded divergence: receiver {} has {} maximal outputs {:?}",
            i,
            maximal.len(),
            maximal
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// n_byz < n_honest / 2 guarantees |H_r| > 2/3 |O_r| even when all
    /// Byzantine processes vote (perceived participation counts them).
    #[test]
    fn lemma1_holds_under_assumption(
        tree_choices in prop::collection::vec(any::<u8>(), 1..12),
        honest_choice in prop::collection::vec(any::<u8>(), 1..10),
        n_honest in 5usize..12,
        byz_seed in prop::collection::vec(prop::collection::vec(any::<u8>(), 5), 12),
    ) {
        let n_byz = (n_honest - 1) / 2; // strictly less than half the honest count
        prop_assume!(n_honest > 2 * n_byz);
        let byz_choice: Vec<Vec<u8>> = (0..n_honest)
            .map(|r| (0..n_byz).map(|b| byz_seed[r % byz_seed.len()][b % 5]).collect())
            .collect();
        let ex = run_ga(&tree_choices, n_honest, n_byz, &honest_choice, &byz_choice);
        check_lemma1(&ex)?;
    }

    /// With *no* Byzantine processes every property must hold trivially,
    /// and unanimity must produce grade-1 on the common input.
    #[test]
    fn lemma1_holds_without_adversary(
        tree_choices in prop::collection::vec(any::<u8>(), 1..12),
        honest_choice in prop::collection::vec(any::<u8>(), 1..10),
        n_honest in 3usize..10,
    ) {
        let byz_choice: Vec<Vec<u8>> = (0..n_honest).map(|_| Vec::new()).collect();
        let ex = run_ga(&tree_choices, n_honest, 0, &honest_choice, &byz_choice);
        check_lemma1(&ex)?;
    }
}

/// The control group: Lemma 1's assumption is load-bearing. With more
/// than half as many Byzantine as honest voters (so `|H_r| ≤ 2/3·|O_r|`)
/// playing a coordinated split — even receivers see every Byzantine vote
/// for one block, odd receivers for a conflicting one — the properties
/// fail.
#[test]
fn lemma1_fails_when_the_assumption_is_broken() {
    let mut instances = 0;
    let mut violated = 0;
    // Trees with at least two conflicting children of genesis (ids 1, 2).
    for tree_choices in [vec![0u8, 0], vec![0, 0, 1, 2], vec![0, 0, 2, 1, 4]] {
        for honest_choice in [vec![0u8], vec![1], vec![0, 1, 2]] {
            for n_honest in 5usize..12 {
                let n_byz = n_honest / 2 + 1;
                let byz_choice: Vec<Vec<u8>> = (0..n_honest)
                    .map(|recv| vec![1 + (recv % 2) as u8; n_byz])
                    .collect();
                let ex = run_ga(&tree_choices, n_honest, n_byz, &honest_choice, &byz_choice);
                instances += 1;
                if check_lemma1(&ex).is_err() {
                    violated += 1;
                }
            }
        }
    }
    assert!(
        violated > 0,
        "no property failed in {instances} instances with the assumption broken"
    );
}

/// Clique validity (the new Lemma 1 property): a set `H′` of processes
/// whose members all voted extensions of Λ — some fresh, some via `M₀` —
/// makes every member output Λ with grade 1, provided
/// `|H′| > 2/3·|O_r ∪ P₀|`. This is a deterministic scenario test: the
/// asynchrony-resilience proof (Lemma 2) leans on exactly this shape.
#[test]
fn clique_validity_deterministic_scenario() {
    let mut tree = BlockTree::new();
    let lambda = tree
        .insert(Block::build(
            BlockId::GENESIS,
            View::new(1),
            ProcessId::new(0),
            vec![],
        ))
        .unwrap();
    let ext = tree
        .insert(Block::build(
            lambda,
            View::new(2),
            ProcessId::new(1),
            vec![],
        ))
        .unwrap();
    let rival = tree
        .insert(Block::build(
            BlockId::GENESIS,
            View::new(1),
            ProcessId::new(9),
            vec![],
        ))
        .unwrap();

    // H′ = {p0..p6}: p0..p3 voted fresh (round 5) extensions of Λ; p4..p6
    // are asleep but their round-3 votes (in M₀) are for extensions of Λ.
    // The adversary contributes 3 votes for a rival chain. |H′| = 7,
    // |O_r ∪ P₀| = 10, 7 > 2/3·10. Every member of H′ must output Λ at
    // grade 1.
    let mut store = VoteStore::new();
    for i in 0..4u32 {
        store.insert(Vote::new(ProcessId::new(i), Round::new(5), ext));
    }
    for i in 4..7u32 {
        store.insert(Vote::new(ProcessId::new(i), Round::new(3), lambda));
    }
    for i in 7..10u32 {
        store.insert(Vote::new(ProcessId::new(i), Round::new(5), rival));
    }
    let out = tally(
        &tree,
        &store,
        Round::new(1),
        Round::new(5),
        Thresholds::mmr(),
    );
    assert_eq!(out.participation(), 10);
    assert_eq!(
        out.grade_of(lambda),
        Some(Grade::One),
        "clique validity violated"
    );
    // The rival, with 3 of 10 votes, must not reach grade 1 (3 ≤ 2·10/3)
    // and in fact not even appear: 3 of 10 is not > 10/3? 3 < 3.33 → no.
    assert_eq!(out.grade_of(rival), None);
}
