//! Golden frontiers: `FleetFrontier::build(..).to_json()` must stay
//! byte-identical to the artifacts under `tests/golden/`, which were
//! captured before the planners started sharing one `Ts` table and
//! pricing segment suffixes in one walk. Any planner-cost optimisation
//! that moves a single bit of a period, a latency, a band or the switch
//! matrix fails here.

use pico_fleet::{FleetConfig, FleetFrontier};
use pico_model::{zoo, Model};
use pico_partition::{Cluster, CostParams, Device};

fn models() -> Vec<(&'static str, Model)> {
    vec![
        ("resnet34", zoo::resnet34()),
        ("vgg16_features", zoo::vgg16().features()),
        ("inception_v3_features", zoo::inception_v3().features()),
    ]
}

/// The full paper cluster, three memberships a leave walk passes
/// through, and one re-provisioned at a clock no tier runs at.
fn memberships() -> Vec<(&'static str, Cluster)> {
    let all = Cluster::paper_heterogeneous();
    let without = |ids: &[usize]| all.without(ids).expect("members remain");
    let reclocked: Cluster = without(&[3])
        .devices()
        .iter()
        .map(|d| match d.id {
            5 => Device::from_frequency(5, 0.6 * (1.0 + 1e-6)),
            _ => d.clone(),
        })
        .collect();
    vec![
        ("all8", all.clone()),
        ("without_3", without(&[3])),
        ("without_3_6", without(&[3, 6])),
        ("without_1_3_6", without(&[1, 3, 6])),
        ("without_3_reclocked_5", reclocked),
    ]
}

fn build_json_under(model: &Model, cluster: &Cluster, params: &CostParams) -> String {
    FleetFrontier::build(model, cluster, params, FleetConfig::default())
        .expect("frontier")
        .to_json()
}

fn build_json(model: &Model, cluster: &Cluster) -> String {
    build_json_under(model, cluster, &CostParams::wifi_50mbps())
}

fn golden_path(model: &str, membership: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{model}__{membership}.json"))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn frontiers_match_the_committed_goldens_byte_for_byte() {
    for (model_name, model) in models() {
        for (membership, cluster) in memberships() {
            let path = golden_path(model_name, membership);
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let got = build_json(&model, &cluster);
            assert_eq!(got, want, "{model_name} x {membership} drifted");
        }
    }
}

/// A request carrying its own `T_lim` gets PICO planned under that
/// limit next to the (limit-free) sweep.
#[test]
fn a_request_with_its_own_t_lim_matches_its_golden() {
    let path = golden_path("resnet34", "all8_t_lim_4600ms");
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let got = build_json_under(
        &zoo::resnet34(),
        &Cluster::paper_heterogeneous(),
        &CostParams::wifi_50mbps().with_t_lim(4.6),
    );
    assert_eq!(got, want);
}

/// Independent of the committed files: digests of the same artifacts
/// taken on the commit before the planner-cost work.
#[test]
fn resnet34_digests_match_the_pre_optimisation_commit() {
    let model = zoo::resnet34();
    let want = [
        ("all8", 0xf7c0_fc51_7fc4_30b7_u64, 907),
        ("without_3", 0xc8fe_2742_cf1e_0249, 904),
        ("without_3_6", 0xd4b8_8c68_1038_e3b7, 693),
        ("without_1_3_6", 0x6c52_2a9d_8672_7ea2, 1131),
    ];
    let memberships = memberships();
    for (name, digest, len) in want {
        let (_, cluster) = memberships
            .iter()
            .find(|(n, _)| *n == name)
            .expect("membership is listed");
        let json = build_json(&model, cluster);
        assert_eq!(json.len(), len, "{name}: length");
        assert_eq!(fnv1a64(json.as_bytes()), digest, "{name}: digest");
    }
}
