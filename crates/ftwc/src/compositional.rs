//! Process-algebraic FTWC construction — the paper's "CADP route".
//!
//! Every component is a small LTS (Figure 2): it *fails*, *grabs* the
//! repair unit, is *repaired* and *releases* the unit. Failure and repair
//! delays are imposed by elapse time constraints (Figure 3); workstations
//! of one side share their `g_…`/`r_…` actions, so the repair unit cannot
//! (and need not) distinguish them. The full cluster is the parallel
//! composition of the two workstation groups, the switches, the backbone
//! and the repair unit, minimized compositionally — uniform at every step
//! by Lemmas 1–3.
//!
//! State labels (operational counters per side, switch/backbone status) are
//! tracked through every composition and minimization so the premium
//! predicate can be evaluated on the final model.
//!
//! Complexity grows quickly with `N` — the paper itself could not build the
//! compositional model beyond `N = 14` — so this route is meant for small
//! clusters and for cross-validating the scalable [`generator`] route.
//!
//! [`generator`]: crate::generator

use std::time::{Duration, Instant};

use unicon_core::{Refiner, UniformImc};
use unicon_ctmc::PhaseType;
use unicon_lts::LtsBuilder;

use crate::params::{Component, FtwcParams};
use crate::premium::{premium, Config};

/// Wall-clock decomposition of one compositional construction, mirroring
/// the paper's Table-1 phases. The phases are disjoint: *generate* covers
/// leaf component and timer construction (including their internal
/// fixed-size elapse products and relabelling), *compose* covers the
/// cluster-level parallel products and hiding, and *minimize* covers every
/// label-respecting quotient — wherever in the pipeline it happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// Leaf component and timer construction.
    pub generate: Duration,
    /// Parallel products and hiding.
    pub compose: Duration,
    /// Bisimulation minimization (all `minimize_labeled` calls).
    pub minimize: Duration,
}

/// Build context: which refiner backend minimizations use, plus the
/// accumulated per-phase timings.
struct BuildCtx {
    refiner: Refiner,
    t: BuildTimings,
}

impl BuildCtx {
    fn new(refiner: Refiner) -> Self {
        Self {
            refiner,
            t: BuildTimings::default(),
        }
    }

    fn generate<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let _span = unicon_obs::span("generate");
        let start = Instant::now();
        let out = f();
        self.t.generate += start.elapsed();
        out
    }
}

/// A model whose states carry a tracked label.
#[derive(Debug, Clone)]
struct Labeled {
    model: UniformImc,
    labels: Vec<u32>,
}

impl Labeled {
    /// Parallel composition combining labels with `f`.
    fn parallel(
        &self,
        other: &Labeled,
        sync: &[&str],
        f: impl Fn(u32, u32) -> u32,
        ctx: &mut BuildCtx,
    ) -> Labeled {
        let _span = unicon_obs::span("compose");
        let start = Instant::now();
        let (model, map) = self.model.parallel_with_map(&other.model, sync);
        let labels = map
            .iter()
            .map(|&(a, b)| f(self.labels[a as usize], other.labels[b as usize]))
            .collect();
        ctx.t.compose += start.elapsed();
        Labeled { model, labels }
    }

    /// Label-respecting minimization with the context's refiner backend.
    fn minimize(&self, ctx: &mut BuildCtx) -> Labeled {
        let _span = unicon_obs::span("minimize");
        let start = Instant::now();
        let (model, labels) = self.model.minimize_labeled_with(&self.labels, ctx.refiner);
        ctx.t.minimize += start.elapsed();
        Labeled { model, labels }
    }

    fn hide(&self, actions: &[&str], ctx: &mut BuildCtx) -> Labeled {
        let _span = unicon_obs::span("compose");
        let start = Instant::now();
        let out = Labeled {
            model: self.model.hide(actions),
            labels: self.labels.clone(),
        };
        ctx.t.compose += start.elapsed();
        out
    }
}

/// The result of the compositional construction.
#[derive(Debug, Clone)]
pub struct CompositionalModel {
    /// The uniform-by-construction cluster model.
    pub uniform: UniformImc,
    /// Per-state goal flag: premium service **not** guaranteed.
    pub premium_down: Vec<bool>,
    /// Per-state decoded configuration (repair-unit status not tracked).
    pub configs: Vec<Config>,
}

/// Label packing: left count | right count << 8 | switches/backbone bits.
const RIGHT_SHIFT: u32 = 8;
const SL_BIT: u32 = 1 << 16;
const SR_BIT: u32 = 1 << 17;
const BB_BIT: u32 = 1 << 18;

fn unpack(label: u32) -> Config {
    Config {
        left: label & 0xff,
        right: (label >> RIGHT_SHIFT) & 0xff,
        switch_left: label & SL_BIT != 0,
        switch_right: label & SR_BIT != 0,
        backbone: label & BB_BIT != 0,
    }
}

/// One repairable component: the Figure-2 LTS with its two elapse time
/// constraints, actions relabelled to `g_<suffix>` / `r_<suffix>`, `fail`
/// and `repair` hidden, minimized. The label is 1 while operational.
fn timed_component(fail_rate: f64, repair_rate: f64, suffix: &str, ctx: &mut BuildCtx) -> Labeled {
    let raw = ctx.generate(|| {
        let mut b = LtsBuilder::new(4, 0);
        b.add("fail", 0, 1);
        b.add("g", 1, 2);
        b.add("repair", 2, 3);
        b.add("r", 3, 0);
        let lts = UniformImc::from_lts(&b.build());

        let tc_fail = UniformImc::from_elapse(
            &PhaseType::exponential(fail_rate).uniformize_at_max(),
            "fail",
            "r",
        );
        let tc_repair = UniformImc::from_elapse(
            &PhaseType::exponential(repair_rate).uniformize_at_max(),
            "repair",
            "g",
        );
        let constraints = tc_fail.parallel(&tc_repair, &[]);
        let (timed, map) = constraints.parallel_with_map(&lts, &["fail", "g", "repair", "r"]);
        let labels: Vec<u32> = map.iter().map(|&(_, ls)| u32::from(ls == 0)).collect();
        let renamed = timed
            .hide(&["fail", "repair"])
            .relabel(&[("g", &format!("g_{suffix}")), ("r", &format!("r_{suffix}"))]);
        Labeled {
            model: renamed,
            labels,
        }
    });
    raw.minimize(ctx)
}

/// A group of `n` interleaved identical components; the label is the number
/// of operational members. Minimized after every composition step — the
/// symmetry collapse is what makes the compositional route feasible at all.
fn component_group(n: usize, unit: &Labeled, ctx: &mut BuildCtx) -> Labeled {
    let mut acc = unit.clone();
    for _ in 1..n {
        acc = acc.parallel(unit, &[], |a, b| a + b, ctx).minimize(ctx);
    }
    acc
}

/// The repair-unit LTS: idle, or busy with one of the five component types.
fn repair_unit() -> UniformImc {
    let mut b = LtsBuilder::new(6, 0);
    for (i, c) in Component::ALL.iter().enumerate() {
        let busy = (i + 1) as u32;
        b.add(&format!("g_{}", c.suffix()), 0, busy);
        b.add(&format!("r_{}", c.suffix()), busy, 0);
    }
    UniformImc::from_lts(&b.build())
}

/// Builds the FTWC compositionally.
///
/// # Panics
///
/// Panics if `params.n > 255` (the label packing limit; the compositional
/// route is infeasible far below that anyway).
pub fn build(params: &FtwcParams) -> CompositionalModel {
    build_with(params, Refiner::default()).0
}

/// [`build`] with an explicit refiner backend, returning per-phase timings.
pub fn build_with(params: &FtwcParams, refiner: Refiner) -> (CompositionalModel, BuildTimings) {
    assert!(params.n <= 255, "compositional route supports n <= 255");
    let n = params.n;
    let ctx = &mut BuildCtx::new(refiner);

    let ws_left = timed_component(params.ws_fail, params.ws_repair, "wsL", ctx);
    let ws_right = timed_component(params.ws_fail, params.ws_repair, "wsR", ctx);
    let sw_left = timed_component(params.sw_fail, params.sw_repair, "swL", ctx);
    let sw_right = timed_component(params.sw_fail, params.sw_repair, "swR", ctx);
    let backbone = timed_component(params.bb_fail, params.bb_repair, "bb", ctx);

    let left_group = component_group(n, &ws_left, ctx);
    let right_group = component_group(n, &ws_right, ctx);

    // Assemble the label layout while interleaving everything.
    let sides = left_group.parallel(&right_group, &[], |l, r| l | (r << RIGHT_SHIFT), ctx);
    let sides = sides
        .parallel(&sw_left, &[], |acc, s| acc | (s * SL_BIT), ctx)
        .minimize(ctx);
    let sides = sides
        .parallel(&sw_right, &[], |acc, s| acc | (s * SR_BIT), ctx)
        .minimize(ctx);
    let plant = sides
        .parallel(&backbone, &[], |acc, s| acc | (s * BB_BIT), ctx)
        .minimize(ctx);

    // Synchronize with the single repair unit on all grab/release actions.
    let mut sync: Vec<String> = Vec::new();
    for c in Component::ALL {
        sync.push(format!("g_{}", c.suffix()));
        sync.push(format!("r_{}", c.suffix()));
    }
    let sync_refs: Vec<&str> = sync.iter().map(String::as_str).collect();
    let ru = ctx.generate(|| Labeled {
        labels: vec![0; repair_unit().imc().num_states()],
        model: repair_unit(),
    });
    let full = plant.parallel(&ru, &sync_refs, |acc, _| acc, ctx);

    // Hide the now-internal repair protocol and minimize with the premium
    // bit as the label (the final quotient may merge configurations that
    // agree on premium).
    let hide_refs: Vec<&str> = sync.iter().map(String::as_str).collect();
    let hidden = full.hide(&hide_refs, ctx);
    let premium_labels: Vec<u32> = hidden
        .labels
        .iter()
        .map(|&l| u32::from(!premium(&unpack(l), n)))
        .collect();
    let final_span = unicon_obs::span("minimize");
    let final_start = Instant::now();
    let (minimized, down_labels) = hidden
        .model
        .minimize_labeled_with(&premium_labels, ctx.refiner);
    ctx.t.minimize += final_start.elapsed();
    drop(final_span);

    // Configs of the quotient are only meaningful up to the premium bit;
    // recover a representative config per quotient state for diagnostics.
    let configs: Vec<Config> = down_labels
        .iter()
        .map(|&d| {
            if d == 1 {
                // representative degraded config
                Config {
                    left: 0,
                    right: 0,
                    switch_left: false,
                    switch_right: false,
                    backbone: false,
                }
            } else {
                Config::all_up(n)
            }
        })
        .collect();
    let model = CompositionalModel {
        uniform: minimized,
        premium_down: down_labels.iter().map(|&d| d == 1).collect(),
        configs,
    };
    (model, ctx.t)
}

/// One repairable component for the *shared-timer* construction: the
/// repair delay lives in the cluster-wide [`shared_elapse`] timer, so the
/// component itself only carries its failure constraint. The type-level
/// actions `g_<c>`, `repair_<c>` and `r_<c>` stay visible for the timer
/// synchronization.
///
/// [`shared_elapse`]: unicon_imc::elapse::shared_elapse
fn fail_only_component(fail_rate: f64, suffix: &str, ctx: &mut BuildCtx) -> Labeled {
    let raw = ctx.generate(|| {
        let mut b = LtsBuilder::new(4, 0);
        b.add("fail", 0, 1);
        b.add(&format!("g_{suffix}"), 1, 2);
        b.add(&format!("repair_{suffix}"), 2, 3);
        b.add(&format!("r_{suffix}"), 3, 0);
        let lts = UniformImc::from_lts(&b.build());
        let tc_fail = UniformImc::from_elapse(
            &PhaseType::exponential(fail_rate).uniformize_at_max(),
            "fail",
            &format!("r_{suffix}"),
        );
        let (timed, map) = tc_fail.parallel_with_map(&lts, &["fail", &format!("r_{suffix}")]);
        let labels: Vec<u32> = map.iter().map(|&(_, ls)| u32::from(ls == 0)).collect();
        Labeled {
            model: timed.hide(&["fail"]),
            labels,
        }
    });
    raw.minimize(ctx)
}

/// Builds the FTWC compositionally with **one shared repair timer** — the
/// construction whose uniform rate (`E_rep + Σ failure rates`, about 2)
/// matches the paper's Table 1 iteration counts and the counter generator.
///
/// The shared timer plays the role of the repair unit: it offers `g_<c>`
/// only while idle (serializing repairs), runs the type-specific repair
/// delay uniformized at the maximal repair rate, and offers `repair_<c>` on
/// completion.
///
/// # Panics
///
/// Panics if `params.n > 255`.
pub fn build_shared_timer(params: &FtwcParams) -> CompositionalModel {
    build_shared_timer_with(params, Refiner::default()).0
}

/// [`build_shared_timer`] with an explicit refiner backend, returning
/// per-phase timings.
pub fn build_shared_timer_with(
    params: &FtwcParams,
    refiner: Refiner,
) -> (CompositionalModel, BuildTimings) {
    assert!(params.n <= 255, "compositional route supports n <= 255");
    let n = params.n;
    let e_rep = params.repair_timer_rate();
    let ctx = &mut BuildCtx::new(refiner);

    let ws_left = fail_only_component(params.ws_fail, "wsL", ctx);
    let ws_right = fail_only_component(params.ws_fail, "wsR", ctx);
    let sw_left = fail_only_component(params.sw_fail, "swL", ctx);
    let sw_right = fail_only_component(params.sw_fail, "swR", ctx);
    let backbone = fail_only_component(params.bb_fail, "bb", ctx);

    let left_group = component_group(n, &ws_left, ctx);
    let right_group = component_group(n, &ws_right, ctx);

    let sides = left_group.parallel(&right_group, &[], |l, r| l | (r << RIGHT_SHIFT), ctx);
    let sides = sides
        .parallel(&sw_left, &[], |acc, s| acc | (s * SL_BIT), ctx)
        .minimize(ctx);
    let sides = sides
        .parallel(&sw_right, &[], |acc, s| acc | (s * SR_BIT), ctx)
        .minimize(ctx);
    let plant = sides
        .parallel(&backbone, &[], |acc, s| acc | (s * BB_BIT), ctx)
        .minimize(ctx);

    // The shared repair timer, one Erlang branch per component type.
    let timer = ctx.generate(|| {
        let branch_phases: Vec<(String, String, unicon_ctmc::phase_type::UniformPhaseType)> =
            Component::ALL
                .iter()
                .map(|&c| {
                    (
                        format!("repair_{}", c.suffix()),
                        format!("g_{}", c.suffix()),
                        PhaseType::erlang(params.repair_phases, params.repair_phase_rate(c))
                            .uniformize(e_rep),
                    )
                })
                .collect();
        let branches: Vec<(&str, &str, &unicon_ctmc::phase_type::UniformPhaseType)> = branch_phases
            .iter()
            .map(|(f, r, ph)| (f.as_str(), r.as_str(), ph))
            .collect();
        Labeled {
            labels: vec![0; UniformImc::from_shared_elapse(&branches).imc().num_states()],
            model: UniformImc::from_shared_elapse(&branches),
        }
    });

    let mut sync: Vec<String> = Vec::new();
    for c in Component::ALL {
        sync.push(format!("g_{}", c.suffix()));
        sync.push(format!("repair_{}", c.suffix()));
    }
    let sync_refs: Vec<&str> = sync.iter().map(String::as_str).collect();
    let full = plant.parallel(&timer, &sync_refs, |acc, _| acc, ctx);

    // Hide the whole repair protocol (including the releases) and minimize
    // with the premium bit.
    let mut hide: Vec<String> = sync;
    for c in Component::ALL {
        hide.push(format!("r_{}", c.suffix()));
    }
    let hide_refs: Vec<&str> = hide.iter().map(String::as_str).collect();
    let hidden = full.hide(&hide_refs, ctx);
    let premium_labels: Vec<u32> = hidden
        .labels
        .iter()
        .map(|&l| u32::from(!premium(&unpack(l), n)))
        .collect();
    let final_span = unicon_obs::span("minimize");
    let final_start = Instant::now();
    let (minimized, down_labels) = hidden
        .model
        .minimize_labeled_with(&premium_labels, ctx.refiner);
    ctx.t.minimize += final_start.elapsed();
    drop(final_span);
    let configs: Vec<Config> = down_labels
        .iter()
        .map(|&d| {
            if d == 1 {
                Config {
                    left: 0,
                    right: 0,
                    switch_left: false,
                    switch_right: false,
                    backbone: false,
                }
            } else {
                Config::all_up(n)
            }
        })
        .collect();
    let model = CompositionalModel {
        uniform: minimized,
        premium_down: down_labels.iter().map(|&d| d == 1).collect(),
        configs,
    };
    (model, ctx.t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicon_imc::View;
    use unicon_numeric::assert_close;

    fn ctx() -> BuildCtx {
        BuildCtx::new(Refiner::default())
    }

    #[test]
    fn timed_component_is_uniform_with_summed_rate() {
        let c = timed_component(0.002, 2.0, "wsL", &mut ctx());
        assert_close!(c.model.rate(), 2.002, 1e-12);
        assert!(c.model.imc().is_uniform(View::Open));
        // both label classes present: up and down states
        assert!(c.labels.contains(&0) && c.labels.contains(&1));
    }

    #[test]
    fn group_counts_operational_members() {
        let mut ctx = ctx();
        let unit = timed_component(0.01, 1.0, "wsL", &mut ctx);
        let g = component_group(3, &unit, &mut ctx);
        let max = *g.labels.iter().max().unwrap();
        assert_eq!(max, 3);
        assert!(g.labels.contains(&0));
        assert_close!(g.model.rate(), 3.0 * unit.model.rate(), 1e-9);
    }

    #[test]
    fn group_minimization_collapses_symmetry() {
        // 3 interchangeable components: the minimized group must be far
        // smaller than the full 3-fold product.
        let mut ctx = ctx();
        let unit = timed_component(0.01, 1.0, "x", &mut ctx);
        let raw_states = unit.model.imc().num_states().pow(3);
        let g = component_group(3, &unit, &mut ctx);
        assert!(
            g.model.imc().num_states() * 2 < raw_states,
            "{} vs {raw_states}",
            g.model.imc().num_states()
        );
    }

    #[test]
    fn shared_timer_route_matches_generator_rate() {
        let params = FtwcParams::new(1);
        let m = build_shared_timer(&params);
        assert!(m.uniform.imc().is_uniform(View::Open));
        assert_close!(m.uniform.rate(), params.uniform_rate(), 1e-9);
        assert!(m.premium_down.iter().any(|&d| d));
        assert!(!m.premium_down[m.uniform.imc().initial() as usize]);
    }

    #[test]
    fn erlang_repairs_shared_timer_matches_generator() {
        use unicon_core::PreparedModel;
        // Extension: 2-phase Erlang repairs; the shared-timer compositional
        // route and the generator must still agree.
        let mut params = FtwcParams::new(1);
        params.repair_phases = 2;
        let t = 100.0;
        let comp = build_shared_timer(&params);
        assert_close!(comp.uniform.rate(), params.uniform_rate(), 1e-9);
        let comp_p = PreparedModel::new(&comp.uniform.close(), &comp.premium_down)
            .unwrap()
            .worst_case_from_initial(t, 1e-10)
            .unwrap();
        let gen = crate::generator::build_uimc(&params);
        let gen_p = PreparedModel::new(&gen.uniform, &gen.premium_down)
            .unwrap()
            .worst_case_from_initial(t, 1e-10)
            .unwrap();
        assert_close!(comp_p, gen_p, 1e-7);
        // The repair-time distribution's shape matters, not only its mean:
        // with the same mean, 2-phase Erlang repairs give a (slightly)
        // different probability than exponential ones. (Counter-intuitively
        // a *higher* one here: Erlang repairs are never very short, so a
        // second failure overlaps a repair window slightly more often.)
        let exp_p = {
            let gen = crate::generator::build_uimc(&FtwcParams::new(1));
            PreparedModel::new(&gen.uniform, &gen.premium_down)
                .unwrap()
                .worst_case_from_initial(t, 1e-10)
                .unwrap()
        };
        assert!(
            (gen_p - exp_p).abs() > 1e-6,
            "distribution shape should matter: Erlang {gen_p} vs exponential {exp_p}"
        );
    }

    #[test]
    fn three_routes_agree_on_probabilities() {
        use unicon_core::PreparedModel;
        let params = FtwcParams::new(1);
        let t = 100.0;
        let analyze = |model: &crate::compositional::CompositionalModel| -> f64 {
            let prepared = PreparedModel::new(&model.uniform.close(), &model.premium_down).unwrap();
            prepared.worst_case_from_initial(t, 1e-10).unwrap()
        };
        let per_component = analyze(&build(&params));
        let shared = analyze(&build_shared_timer(&params));
        let generated = {
            let g = crate::generator::build_uimc(&params);
            let prepared = PreparedModel::new(&g.uniform, &g.premium_down).unwrap();
            prepared.worst_case_from_initial(t, 1e-10).unwrap()
        };
        assert_close!(per_component, shared, 1e-7);
        assert_close!(shared, generated, 1e-7);
    }

    #[test]
    fn full_build_n1_is_uniform_and_labeled() {
        let params = FtwcParams::new(1);
        let m = build(&params);
        assert!(m.uniform.imc().is_uniform(View::Open));
        let expected_rate = 2.0 * (params.ws_fail + params.ws_repair)
            + 2.0 * (params.sw_fail + params.sw_repair)
            + (params.bb_fail + params.bb_repair);
        assert_close!(m.uniform.rate(), expected_rate, 1e-9);
        assert!(m.premium_down.iter().any(|&d| d));
        assert!(m.premium_down.iter().any(|&d| !d));
        // initial state is premium
        assert!(!m.premium_down[m.uniform.imc().initial() as usize]);
    }
}
