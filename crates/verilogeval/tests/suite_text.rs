//! Pins the generated suite's text byte for byte.
//!
//! Every problem's `name`, `spec`, `module_name` and its four golden
//! texts (Verilog and VHDL DUT and testbench) are hashed into one digest
//! per family and one over the whole suite. Any change to a generator
//! (a reordered port, a changed literal, a different whitespace run)
//! moves a digest; the per-family table names the family that moved.
//! Run with `--nocapture` to print the table.

use aivril_verilogeval::{suite, Family, Problem};

/// FNV-1a 64 over length-prefixed fields, so adjacent fields can never
/// alias (`"ab" + "c"` differs from `"a" + "bc"`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn field(&mut self, text: &str) {
        self.bytes(&(text.len() as u64).to_le_bytes());
        self.bytes(text.as_bytes());
    }

    fn problem(&mut self, p: &Problem) {
        self.bytes(&(p.id as u64).to_le_bytes());
        for text in [
            &*p.name,
            &*p.spec,
            &*p.module_name,
            &*p.verilog.dut,
            &*p.verilog.tb,
            &*p.vhdl.dut,
            &*p.vhdl.tb,
        ] {
            self.field(text);
        }
    }
}

/// The digests of the suite as generated when this pin was set: one per
/// family, in suite order, with its problem count.
const FAMILIES: [(Family, usize, u64); 16] = [
    (Family::Gates, 12, 0xa412_deac_b1cc_4cce),
    (Family::Mux, 10, 0xc5d0_1827_33c0_3fc0),
    (Family::Decoder, 10, 0x08f9_0a1d_9271_81f8),
    (Family::Encoder, 8, 0xf7d3_bbaf_cd34_bf46),
    (Family::Adder, 12, 0x3ba8_915c_f2d8_fb89),
    (Family::Comparator, 10, 0x21a2_8784_7a94_60e3),
    (Family::Parity, 8, 0x9986_9976_7c8f_0cf1),
    (Family::Popcount, 8, 0x101b_99b1_304e_ecea),
    (Family::Shifter, 10, 0x3d77_a61a_bf39_aaed),
    (Family::GrayCode, 8, 0x7ec5_5cea_ad15_58c9),
    (Family::SevenSegment, 6, 0xdd25_8ad2_ac15_55bd),
    (Family::Alu, 10, 0xd4b5_66f3_9bb8_0944),
    (Family::Counter, 12, 0x3173_3f79_46fb_40fd),
    (Family::ShiftRegister, 10, 0x1923_ea3d_05b5_c531),
    (Family::EdgeDetector, 9, 0x2d16_0776_b9e3_f580),
    (Family::Fsm, 13, 0xbd10_2c1e_0952_b440),
];

/// The digest over all 156 problems, in suite order.
const SUITE: u64 = 0x2c75_666e_6678_71d9;

#[test]
fn suite_text_is_pinned() {
    let problems = suite();
    let mut whole = Fnv::new();
    let mut table = Vec::new();
    for p in &problems {
        whole.problem(p);
        match table.last_mut() {
            Some((family, count, h)) if *family == p.family => {
                *count += 1;
                Fnv::problem(h, p);
            }
            _ => {
                let mut h = Fnv::new();
                h.problem(p);
                table.push((p.family, 1, h));
            }
        }
    }
    let table: Vec<(Family, usize, u64)> = table.into_iter().map(|(f, n, h)| (f, n, h.0)).collect();
    for (family, count, digest) in &table {
        println!("{:<16} {count:>3} {digest:#018x}", family.to_string());
    }
    println!("{:<16} {:>3} {:#018x}", "suite", problems.len(), whole.0);
    let moved: Vec<String> = FAMILIES
        .iter()
        .zip(&table)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("{}: want {want:x?}, got {got:x?}", want.0))
        .collect();
    assert!(
        moved.is_empty() && table.len() == FAMILIES.len(),
        "generated text changed in {} famil(ies):\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(whole.0, SUITE, "suite digest moved");
}
