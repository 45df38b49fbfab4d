//! GENERATED by `cargo run -p congest-lint -- --emit-msg-size-test`.
//!
//! Pins every protocol message type's declared packed wire width
//! (`PackedMsg::BITS`) to the 64-bit plane word: message planes
//! allocate one `u64` cell per directed edge, so a type that cannot
//! pack into a word cannot ride the engine at all. Logical on-wire
//! size is metered separately via `Message::bit_size`. Do not edit
//! by hand — regenerate instead.

// The pins are deliberately compile-time-constant assertions.
#![allow(clippy::assertions_on_constants)]

use congest_sim::PackedMsg;

/// See `congest_lint::MSG_PLANE_WORD_BITS` for the derivation.
const PLANE_WORD_BITS: u32 = 64;

#[test]
fn message_types_fit_the_plane_word() {
    // crates/core/src/maxis/alg2.rs:68
    assert!(
        <congest_approx::Alg2Msg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "Alg2Msg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_approx::Alg2Msg as PackedMsg>::BITS
    );
    // crates/core/src/maxis/alg3.rs:40
    assert!(
        <congest_approx::Alg3Msg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "Alg3Msg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_approx::Alg3Msg as PackedMsg>::BITS
    );
    // crates/coloring/src/linial.rs:90
    assert!(
        <congest_coloring::ColorMsg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "ColorMsg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_coloring::ColorMsg as PackedMsg>::BITS
    );
    // crates/core/src/matching/grouped.rs:42
    assert!(
        <congest_approx::GroupedMsg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "GroupedMsg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_approx::GroupedMsg as PackedMsg>::BITS
    );
    // crates/mis/src/luby.rs:18
    assert!(
        <congest_mis::LubyMsg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "LubyMsg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_mis::LubyMsg as PackedMsg>::BITS
    );
    // crates/mis/src/ghaffari.rs:86
    assert!(
        <congest_mis::NmisMsg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "NmisMsg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_mis::NmisMsg as PackedMsg>::BITS
    );
    // crates/core/src/proposal.rs:24
    assert!(
        <congest_approx::ProposalMsg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "ProposalMsg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_approx::ProposalMsg as PackedMsg>::BITS
    );
    // crates/coloring/src/randomized.rs:11
    assert!(
        <congest_coloring::RandColorMsg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "RandColorMsg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_coloring::RandColorMsg as PackedMsg>::BITS
    );
    // crates/coloring/src/reduce.rs:17
    assert!(
        <congest_coloring::RecolorMsg as PackedMsg>::BITS <= PLANE_WORD_BITS,
        "RecolorMsg declares {} packed bits (plane word is {PLANE_WORD_BITS})",
        <congest_coloring::RecolorMsg as PackedMsg>::BITS
    );
}
