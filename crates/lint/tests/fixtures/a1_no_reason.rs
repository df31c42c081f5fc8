//! A1 failing fixture: allow annotations that are rejected — and that
//! therefore suppress nothing, so every function here stays dead.

pub fn first() {} // stlint::allow(deadpub)

pub fn second() {} // stlint::allow(deadpub, reason = "")

pub fn third() {} // stlint::allow(frobnicate, reason = "no such rule")

pub fn fourth() {} // stlint::allow(iterorder, reason = "a retired rule")
