//! Malformed-annotation fixture: allow annotations deadpub rejects, and
//! which therefore suppress nothing, so every function here stays dead.

pub fn first() {} // stlint::allow(deadpub)

pub fn second() {} // stlint::allow(deadpub, reason = "")

pub fn third() {} // stlint::allow(frobnicate, reason = "no such rule")

pub fn fourth() {} // stlint::allow(iterorder, reason = "a retired rule")
