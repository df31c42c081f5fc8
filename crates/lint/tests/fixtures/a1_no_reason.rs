//! A1 failing fixture: allow annotations that are rejected — and that
//! therefore suppress nothing, so the underlying N1 findings survive.
use st_types::FastSet;

fn first(seen: &FastSet<u64>) -> Vec<u64> {
    seen.iter().copied().collect() // stlint::allow(iterorder)
}

fn second(seen: &FastSet<u64>) -> Vec<u64> {
    seen.iter().copied().collect() // stlint::allow(iterorder, reason = "")
}

fn third(seen: &FastSet<u64>) -> Vec<u64> {
    seen.iter().copied().collect() // stlint::allow(frobnicate, reason = "no such rule")
}
