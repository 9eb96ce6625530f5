//! Sweep evaluation is a function of the interval multiset alone.
//!
//! A profile fresh from simulation and the same profile after a trip
//! through the on-disk codec must evaluate to bit-identical savings on
//! every sweep point — the job workers evaluate decoded profiles, the
//! in-process paths simulated ones. The codec's bytes are pinned too,
//! so existing profile files stay valid without a format bump.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::core::TechnologyNode;
use cache_leakage_limits::experiments::codec::{decode_profile, encode_profile};
use cache_leakage_limits::experiments::profile_benchmark;
use cache_leakage_limits::faults::checksum::fnv1a;
use cache_leakage_limits::jobs::JobPoint;
use cache_leakage_limits::workloads::{by_name, Scale, ISA_SUITE_NAMES, SUITE_NAMES};

/// `(benchmark, encoded length, FNV-1a of the encoded bytes)` at test
/// scale, as written by format version 2 before the interval table
/// replaced the class map.
const ENCODED: [(&str, usize, u64); 12] = [
    ("ammp", 273_985, 0x0f98_fbb7_db33_9156),
    ("applu", 292_796, 0x62cd_96f4_3a5c_5b5f),
    ("gcc", 290_951, 0x96ee_91ea_7f06_bd75),
    ("gzip", 244_630, 0x180b_be76_c57b_f076),
    ("mesa", 295_531, 0xfed0_88ea_05b3_5d4a),
    ("vortex", 263_917, 0xc02c_3afc_bd2c_cb3b),
    ("isa:matmul", 1_607, 0x82b4_1b0c_b662_ff55),
    ("isa:isort", 13_519, 0xfc0c_ad64_e522_86bd),
    ("isa:msort", 27_066, 0x8c4a_64b7_2f8f_d406),
    ("isa:chase", 110_989, 0xc96f_1b4c_1d36_c500),
    ("isa:memset", 10_138, 0x57bd_c268_576d_e272),
    ("isa:memcpy", 10_138, 0x4652_0b14_4b05_e095),
];

#[test]
fn decoded_profiles_evaluate_bit_identically() {
    let names: Vec<&str> = SUITE_NAMES
        .iter()
        .chain(ISA_SUITE_NAMES.iter())
        .copied()
        .collect();
    assert_eq!(names.len(), ENCODED.len());
    let mut points = 0;
    for (name, &(pinned, len, digest)) in names.iter().zip(&ENCODED) {
        assert_eq!(*name, pinned);
        let simulated = profile_benchmark(&mut by_name(name, Scale::Test).unwrap());
        let bytes = encode_profile(&simulated);
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, digest),
            "{name}: encoded bytes moved"
        );
        let decoded = decode_profile(&bytes).unwrap();
        for side in [Level1::Instruction, Level1::Data] {
            for node in TechnologyNode::ALL {
                for refetch_permille in [0, 250, 1000, 1500, 4000] {
                    let point = JobPoint {
                        benchmark: name.to_string(),
                        side,
                        node,
                        refetch_permille,
                    };
                    let (fresh, loaded) = (point.evaluate(&simulated), point.evaluate(&decoded));
                    for (a, b) in [
                        (fresh.opt_drowsy, loaded.opt_drowsy),
                        (fresh.opt_sleep, loaded.opt_sleep),
                        (fresh.opt_hybrid, loaded.opt_hybrid),
                    ] {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{point:?}: {fresh:?} vs {loaded:?}"
                        );
                    }
                    points += 1;
                }
            }
        }
    }
    assert_eq!(points, 12 * 2 * 4 * 5);
}
