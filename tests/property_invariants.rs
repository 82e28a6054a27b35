//! Property-based invariants over randomized instances: the constraints
//! of Problem (4) hold for every greedy plan, greedy never beats the
//! brute-force optimum, parallel never loses to sequential, and both
//! drivers agree with the analytic objective in the single-request case.

use proptest::prelude::*;

use s2m3::core::objective::{total_latency, total_latency_sequential, validate};
use s2m3::core::resolved::ResolvedInstance;
use s2m3::core::upper::optimal_placement;
use s2m3::prelude::*;
use s2m3::serve::config::ModelDeployment;

/// Models spanning all task families, paired with sensible candidate
/// ranges.
fn arb_model() -> impl Strategy<Value = (&'static str, usize)> {
    prop_oneof![
        (Just("CLIP ResNet-50"), 2usize..128),
        (Just("CLIP ViT-B/16"), 2usize..128),
        (Just("CLIP ViT-L/14"), 2usize..64),
        (Just("CLIP ResNet-50x16"), 2usize..64),
        (Just("Encoder-only VQA (Small)"), Just(1usize)),
        (Just("Encoder-only VQA (Large)"), Just(1usize)),
        (Just("Flint-v0.5-1B"), Just(1usize)),
        (Just("xtuner-Phi-3-Mini"), Just(1usize)),
        (Just("AlignBind-B"), 2usize..32),
        (Just("CLIP-Classifier Food-101"), Just(1usize)),
        (Just("NLP Connect ViT-GPT2"), Just(1usize)),
    ]
}

/// Fleet subsets that always contain the requester.
fn arb_fleet() -> impl Strategy<Value = Fleet> {
    prop_oneof![
        Just(vec!["jetson-a", "jetson-b"]),
        Just(vec!["desktop", "laptop", "jetson-a"]),
        Just(vec!["desktop", "laptop", "jetson-b", "jetson-a"]),
        Just(vec!["server", "desktop", "laptop", "jetson-b", "jetson-a"]),
        Just(vec!["laptop", "jetson-a"]),
        Just(vec!["server", "jetson-a"]),
    ]
    .prop_map(|names| Fleet::standard_testbed().restricted_to(&names).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Constraints (4b)–(4d) hold for every feasible greedy plan.
    #[test]
    fn greedy_plans_satisfy_problem_constraints(
        (model, candidates) in arb_model(),
        fleet in arb_fleet(),
    ) {
        let Ok(instance) = Instance::on_fleet(fleet, &[(model, candidates)]) else { return Ok(()); };
        let Ok(request) = instance.request(0, model) else { return Ok(()); };
        match Plan::greedy(&instance, vec![request]) {
            Ok(plan) => {
                validate(&instance, &plan.placement, &plan.routed).unwrap();
                // Every model module is placed exactly once (no replication
                // by default).
                prop_assert_eq!(
                    plan.placement.len(),
                    instance.distinct_modules().len()
                );
            }
            Err(s2m3::core::CoreError::Infeasible { .. }) => {} // fine: small fleet
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    /// The brute-force optimum lower-bounds the greedy everywhere, and
    /// both agree on feasibility.
    #[test]
    fn optimal_lower_bounds_greedy(
        (model, candidates) in arb_model(),
        fleet in arb_fleet(),
    ) {
        let Ok(instance) = Instance::on_fleet(fleet, &[(model, candidates)]) else { return Ok(()); };
        let Ok(request) = instance.request(0, model) else { return Ok(()); };
        let greedy = Plan::greedy(&instance, vec![request.clone()]);
        let upper = optimal_placement(&instance);
        prop_assert_eq!(greedy.is_ok(), upper.is_ok());
        if let (Ok(plan), Ok(opt)) = (greedy, upper) {
            let g = total_latency(&instance, &plan.routed[0].1, &request).unwrap();
            prop_assert!(
                g + 1e-9 >= opt.latency,
                "greedy {} beat 'optimal' {}", g, opt.latency
            );
        }
    }

    /// Parallel routing never loses to sequential routing, and both are
    /// strictly positive.
    #[test]
    fn parallel_never_slower_than_sequential(
        (model, candidates) in arb_model(),
        fleet in arb_fleet(),
    ) {
        let Ok(instance) = Instance::on_fleet(fleet, &[(model, candidates)]) else { return Ok(()); };
        let Ok(request) = instance.request(0, model) else { return Ok(()); };
        let Ok(plan) = Plan::greedy(&instance, vec![request.clone()]) else { return Ok(()); };
        let par = total_latency(&instance, &plan.routed[0].1, &request).unwrap();
        let seq = total_latency_sequential(&instance, &plan.routed[0].1, &request).unwrap();
        prop_assert!(par > 0.0);
        prop_assert!(par <= seq + 1e-9, "parallel {} > sequential {}", par, seq);
    }

    /// One uncontended request is Eqs. 1–3: the index-path objective
    /// equals the string path bit for bit, and both drivers — the
    /// bounded simulator and the online server — finish it within the
    /// nanosecond clock's rounding of the analytic latency. The one
    /// exception is a device hosting more of the request's encoders than
    /// it has lanes: the drivers run whichever input lands first, while
    /// the objective's lane refinement runs the longest encoder first
    /// (Encoder-only VQA on {laptop, jetson-a} finishes 34.1 ms early),
    /// so those cases keep the old bound.
    #[test]
    fn simulator_agrees_with_objective(
        (model, candidates) in arb_model(),
        fleet in arb_fleet(),
    ) {
        const NS_BOUND: f64 = 10.0e-9;
        let names: Vec<String> =
            fleet.devices().iter().map(|d| d.id.as_str().to_string()).collect();
        let Ok(instance) = Instance::on_fleet(fleet, &[(model, candidates)]) else { return Ok(()); };
        let Ok(request) = instance.request(0, model) else { return Ok(()); };
        let Ok(plan) = Plan::greedy(&instance, vec![request.clone()]) else { return Ok(()); };
        let route = &plan.routed[0].1;
        let analytic = total_latency(&instance, route, &request).unwrap();

        let resolved = ResolvedInstance::new(&instance).unwrap();
        let routed = resolved.resolve_route(route);
        let source = resolved.device_index(&request.source).unwrap();
        let via_index = resolved.total_latency(0, &request.profile, source, |m| routed[m as usize]);
        prop_assert_eq!(
            via_index.to_bits(), analytic.to_bits(),
            "index {} vs string {}", via_index, analytic
        );

        let report = simulate(&instance, &plan, &SimConfig::default()).unwrap();
        let simulated = report.request_latency(0).unwrap();
        let encoders = instance.deployment(model).unwrap().model.encoders();
        let oversubscribed = instance.fleet().devices().iter().any(|d| {
            encoders.iter().filter(|m| route.device_for(&m.id) == Some(&d.id)).count()
                > d.parallelism.max(1)
        });
        let bound = if oversubscribed { 0.05 + 0.01 * analytic } else { NS_BOUND };
        prop_assert!(
            (simulated - analytic).abs() <= bound,
            "sim {} vs analytic {}", simulated, analytic
        );

        let scenario = ServeScenario {
            fleet: "standard".into(),
            initial_devices: names,
            models: vec![ModelDeployment { name: model.into(), candidates }],
            requests: 1,
            admission: AdmissionPolicy::Fifo,
            events: Vec::new(),
            ..ServeScenario::churn_default()
        };
        let served = serve(&scenario).unwrap();
        prop_assert_eq!(served.completed, 1);
        prop_assert!(
            (served.latency.max_s - simulated).abs() <= NS_BOUND,
            "serve {} vs sim {}", served.latency.max_s, simulated
        );
    }

    /// Sharing accounting: shared params never exceed dedicated params,
    /// and equal them exactly when models share nothing.
    #[test]
    fn sharing_is_monotone(extra in proptest::sample::subsequence(
        vec!["Encoder-only VQA (Small)", "AlignBind-B", "CLIP-Classifier Food-101", "NLP Connect ViT-GPT2"], 0..4))
    {
        let mut models: Vec<(&str, usize)> = vec![("CLIP ViT-B/16", 16)];
        models.extend(extra.iter().map(|m| (*m, 16)));
        let instance = Instance::on_fleet(Fleet::edge_testbed(), &models).unwrap();
        let report = s2m3::core::sharing::SharingReport::for_instance(&instance);
        let last = report.rows.last().unwrap();
        prop_assert!(last.cumulative_shared_params <= last.cumulative_dedicated_params);
        let dedicated = instance.dedicated();
        let dreport = s2m3::core::sharing::SharingReport::for_instance(&dedicated);
        let dlast = dreport.rows.last().unwrap();
        prop_assert_eq!(dlast.cumulative_shared_params, dlast.cumulative_dedicated_params);
    }

    /// Simulated multi-request makespan is monotone in the request count
    /// and bounded by serial execution.
    #[test]
    fn pipelining_bounds(n in 1usize..6) {
        let instance = Instance::single_model("CLIP ViT-B/16", 32).unwrap();
        let requests: Vec<_> = (0..n as u64)
            .map(|k| instance.request(k, "CLIP ViT-B/16").unwrap())
            .collect();
        let plan = Plan::greedy(&instance, requests).unwrap();
        let report = simulate(&instance, &plan, &SimConfig::default()).unwrap();
        let single = {
            let one = Plan {
                placement: plan.placement.clone(),
                routed: vec![plan.routed[0].clone()],
            };
            simulate(&instance, &one, &SimConfig::default())
                .unwrap()
                .makespan
        };
        prop_assert!(report.makespan + 1e-9 >= single);
        prop_assert!(report.makespan <= n as f64 * single + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharding conserves weights and FLOPs and keeps shard ids distinct.
    #[test]
    fn sharding_conserves_resources(k in 1usize..8) {
        let zoo = Zoo::standard();
        let llm = zoo.catalog().get_by_name("llm/Vicuna-7B").unwrap().clone();
        let shards = s2m3::core::partition::shard_module(&llm, k);
        prop_assert_eq!(shards.len(), k);
        let params: u64 = shards.iter().map(|s| s.params).sum();
        prop_assert!(params <= llm.params && params >= llm.params - k as u64);
        let flops: f64 = shards.iter().map(|s| s.gflops_per_unit).sum();
        prop_assert!((flops - llm.gflops_per_unit).abs() < 1e-6);
        let ids: std::collections::BTreeSet<_> = shards.iter().map(|s| s.id.clone()).collect();
        prop_assert_eq!(ids.len(), k);
    }

    /// Balanced routing still satisfies constraint (4b): every assignment
    /// targets a hosting device; and it never uses more devices than the
    /// placement offers.
    #[test]
    fn balanced_routing_respects_hosting(n in 1usize..8) {
        let instance = Instance::single_model("CLIP ViT-B/16", 16).unwrap();
        let placement = s2m3::core::placement::greedy_place_with(
            &instance,
            s2m3::core::placement::PlacementOptions { replicate: true },
        )
        .unwrap();
        let requests: Vec<_> = (0..n as u64)
            .map(|k| instance.request(k, "CLIP ViT-B/16").unwrap())
            .collect();
        let routes =
            s2m3::core::routing::route_requests_balanced(&instance, &placement, &requests)
                .unwrap();
        prop_assert_eq!(routes.len(), n);
        for route in &routes {
            for (m, d) in route.iter() {
                prop_assert!(placement.is_placed(m, d), "{} on non-host {}", m, d);
            }
        }
    }

    /// `Plan::route_all` routes each distinct (model, profile) once and
    /// reuses the answer — found by shape pointer for requests that
    /// share a shape, by (deployment, profile) for the rest; the plan
    /// must equal routing every request on its own, for interleaved
    /// models, repeated and one-off profiles, replicated placements
    /// (where the profile decides the host), and request lists that mix
    /// shared shapes with equal-but-private ones.
    #[test]
    fn memoised_route_all_equals_per_request_routing(
        models in proptest::sample::subsequence(vec![
            ("CLIP ViT-B/16", 101usize),
            ("Encoder-only VQA (Small)", 1),
            ("AlignBind-B", 16),
            ("CLIP-Classifier Food-101", 0),
            ("Flint-v0.5-1B", 1),
        ], 1..=5),
        replicate in 0u8..2,
        picks in proptest::collection::vec(
            (0usize..5, prop_oneof![Just(None), Just(Some(0.0)), Just(Some(-0.0)), Just(Some(1.0)),
                Just(Some(7.0)), (0.0f64..500.0).prop_map(Some)], 0u8..2),
            1..80,
        ),
        ghost_at in 0usize..80,
        ghost_shared in 0u8..2,
    ) {
        let instance = Instance::on_fleet(Fleet::standard_testbed(), &models).unwrap();
        let placement = s2m3::core::placement::greedy_place_with(
            &instance,
            s2m3::core::placement::PlacementOptions { replicate: replicate == 1 },
        )
        .unwrap();
        // One template per distinct (model, units) picked; a pick either
        // shares its shape or builds an equal one of its own.
        let mut templates: Vec<((usize, Option<u64>), Request)> = Vec::new();
        let requests: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(id, &(model, units, shared))| {
                let model = model % models.len();
                let build = || {
                    let mut q = instance.request(id as u64, models[model].0).unwrap();
                    if let Some(units) = units {
                        q.shape_mut().profile.text_units = units;
                        q.shape_mut().profile.llm_tokens = units;
                    }
                    q
                };
                if shared == 0 {
                    return build();
                }
                let key = (model, units.map(f64::to_bits));
                let template = match templates.iter().find(|(k, _)| *k == key) {
                    Some((_, t)) => t,
                    None => {
                        templates.push((key, build()));
                        &templates.last().unwrap().1
                    }
                };
                let mut q = template.clone();
                q.id = id as u64;
                q
            })
            .collect();
        let expected: Vec<_> = requests
            .iter()
            .map(|q| {
                let r = s2m3::core::routing::route_request(&instance, &placement, q).unwrap();
                (q.clone(), r)
            })
            .collect();
        let plan = Plan::route_all(&instance, placement.clone(), requests.clone()).unwrap();
        prop_assert_eq!(&plan.routed, &expected);
        // Sharing survives routing: the plan's requests are the ones
        // handed in, not copies.
        for ((planned, _), given) in plan.routed.iter().zip(&requests) {
            prop_assert!(planned.shares_shape(given));
        }

        // An undeployed model — on a shape of its own, or on one that
        // later requests share — is the same error at the same request:
        // everything before it routes, and it does not.
        let mut requests = requests;
        let at = ghost_at % requests.len();
        let ghost_name = format!("ghost-{at}");
        requests[at].shape_mut().model = ghost_name.clone();
        if ghost_shared == 1 {
            let ghost = requests[at].clone();
            for later in requests.iter_mut().skip(at + 2).step_by(2) {
                let id = later.id;
                *later = ghost.clone();
                later.id = id;
            }
        }
        let first_bad = requests
            .iter()
            .position(|q| s2m3::core::routing::route_request(&instance, &placement, q).is_err());
        prop_assert_eq!(first_bad, Some(at));
        prop_assert_eq!(
            Plan::route_all(&instance, placement.clone(), requests[..at].to_vec()).map(|p| p.routed),
            Ok(expected[..at].to_vec())
        );
        prop_assert_eq!(
            Plan::route_all(&instance, placement, requests[..=at].to_vec()),
            Err(s2m3::core::CoreError::UnknownModel(ghost_name))
        );
    }

    /// A request's shape may be shared between requests; nothing
    /// observable may depend on whether it is. A clone shares its
    /// original's shape, a write through `shape_mut` on either leaves the
    /// other untouched (copy-on-write), and equality and JSON are those
    /// of a request built privately from the same fields — the flat
    /// object the plan goldens hold, `class` present only when set.
    #[test]
    fn shared_request_shapes_behave_like_private_ones(
        id in 0u64..1000,
        model in "[a-z ]{1,8}",
        source in "[a-z]{1,6}",
        text_units in prop_oneof![Just(0.0f64), Just(1.0), 0.0f64..500.0],
        llm_tokens in prop_oneof![Just(0.0f64), Just(128.0)],
        class in prop_oneof![
            Just(None),
            ("[a-z]{1,6}", 0.1f64..100.0, 0u32..4).prop_map(Some),
        ],
        other_model in "[A-Z]{1,4}",
    ) {
        let shape = RequestShape {
            model: model.clone(),
            source: source.as_str().into(),
            profile: RequestProfile { text_units, llm_tokens },
            class: class.clone().map(|(name, deadline_s, priority)| {
                s2m3::core::problem::DeadlineClass { name, deadline_s, priority }
            }),
        };
        let build = |id: u64, shape: &RequestShape| Request::new(id, shape.clone());
        let original = build(id, &shape);
        let mut sibling = original.clone();
        prop_assert!(sibling.shares_shape(&original));
        prop_assert_eq!(&sibling, &original);
        prop_assert!(!build(id, &shape).shares_shape(&original));
        prop_assert_eq!(&build(id, &shape), &original);

        // Another request over the same shape: shared, equal only once
        // the ids agree.
        sibling.id = id + 1;
        prop_assert!(sibling.shares_shape(&original));
        prop_assert_ne!(&sibling, &original);

        // Writing through one holder copies first.
        sibling.shape_mut().model = other_model.clone();
        prop_assert!(!sibling.shares_shape(&original));
        prop_assert_eq!(&original, &build(id, &shape));
        let mut renamed = shape.clone();
        renamed.model = other_model.clone();
        prop_assert_eq!(&sibling, &build(id + 1, &renamed));
        // ... and the other way round: the original writes, the clone
        // taken before keeps what it had.
        let snapshot = original.clone();
        let mut original = original;
        original.shape_mut().model = other_model;
        prop_assert_eq!(&snapshot, &build(id, &shape));
        prop_assert_eq!(&original, &build(id, &renamed));
        // JSON reads contents: the flat object, key for key.
        let expected = format!(
            "{{\"id\":{},\"model\":{},\"source\":{},\"profile\":{}{}}}",
            id,
            serde_json::to_string(&shape.model).unwrap(),
            serde_json::to_string(&shape.source).unwrap(),
            serde_json::to_string(&shape.profile).unwrap(),
            shape.class.as_ref().map_or(String::new(), |c| format!(
                ",\"class\":{}",
                serde_json::to_string(c).unwrap()
            )),
        );
        let shared_json = serde_json::to_string(&snapshot).unwrap();
        prop_assert_eq!(&shared_json, &expected);
        prop_assert_eq!(&serde_json::to_string(&build(id, &shape)).unwrap(), &expected);
        prop_assert_eq!(shared_json.contains("\"class\""), class.is_some());
        let back: Request = serde_json::from_str(&shared_json).unwrap();
        prop_assert_eq!(&back, &snapshot);
        prop_assert!(!back.shares_shape(&snapshot));

        // A plan over shared shapes is, to JSON and `==`, the plan over
        // private copies, and round-trips.
        let route = |id: u64| {
            let mut r = Route::new(id);
            r.assign("m".into(), "d".into());
            r
        };
        let shared_plan = Plan {
            placement: Placement::new(),
            routed: (0..4)
                .map(|k| {
                    let mut q = snapshot.clone();
                    q.id = k;
                    (q, route(k))
                })
                .collect(),
        };
        let private_plan = Plan {
            placement: Placement::new(),
            routed: (0..4).map(|k| (build(k, &shape), route(k))).collect(),
        };
        prop_assert!(shared_plan.routed[0].0.shares_shape(&shared_plan.routed[3].0));
        prop_assert_eq!(&shared_plan, &private_plan);
        let plan_json = serde_json::to_string(&shared_plan).unwrap();
        prop_assert_eq!(&plan_json, &serde_json::to_string(&private_plan).unwrap());
        let back: Plan = serde_json::from_str(&plan_json).unwrap();
        prop_assert_eq!(&back, &shared_plan);
    }

    /// A route's assignment table may be shared between routes; nothing
    /// observable may depend on whether it is. A clone shares its
    /// original's table, `assign` on either leaves the other untouched
    /// (copy-on-write), and equality and JSON bytes are those of a route
    /// built privately from the same pairs.
    #[test]
    fn shared_route_tables_behave_like_private_ones(
        pairs in proptest::collection::vec(("[a-e]{1,1}", "[v-z]{1,1}"), 0..6),
        extra in ("[a-g]{1,1}", "[v-z]{1,1}"),
        id in 0u64..1000,
    ) {
        let build = |id: u64, pairs: &[(String, String)]| {
            let mut r = Route::new(id);
            for (m, d) in pairs {
                r.assign(m.as_str().into(), d.as_str().into());
            }
            r
        };
        let original = build(id, &pairs);
        let mut sibling = original.clone();
        prop_assert!(sibling.shares_assignments(&original));
        prop_assert_eq!(&sibling, &original);

        // Another request's route over the same table: shared, equal
        // only once the ids agree.
        sibling.request_id = id + 1;
        prop_assert!(sibling.shares_assignments(&original));
        prop_assert_ne!(&sibling, &original);

        // Writing through one holder copies first.
        sibling.assign(extra.0.as_str().into(), extra.1.as_str().into());
        prop_assert!(!sibling.shares_assignments(&original));
        prop_assert_eq!(&original, &build(id, &pairs));
        let mut with_extra = pairs.clone();
        with_extra.push(extra.clone());
        let private = build(id + 1, &with_extra);
        prop_assert!(!sibling.shares_assignments(&private));
        prop_assert_eq!(&sibling, &private);
        prop_assert_eq!(
            serde_json::to_string(&sibling).unwrap(),
            serde_json::to_string(&private).unwrap()
        );
        // ... and the other way round: the original writes, the clone
        // taken before keeps what it had.
        let snapshot = original.clone();
        let mut original = original;
        original.assign(extra.0.as_str().into(), extra.1.as_str().into());
        prop_assert_eq!(&snapshot, &build(id, &pairs));
        prop_assert_eq!(&original, &build(id, &with_extra));

        let back: Route = serde_json::from_str(&serde_json::to_string(&snapshot).unwrap()).unwrap();
        prop_assert_eq!(&back, &snapshot);
    }

    /// `Plan::route_all` hands every request of a (model, profile) one
    /// table; the plan's JSON is that of a plan whose routes were each
    /// built privately, and it round-trips.
    #[test]
    fn plans_over_shared_tables_serialize_like_private_ones(
        picks in proptest::collection::vec((0usize..3, prop_oneof![Just(None), Just(Some(7.0))]), 1..40),
    ) {
        let models = [("CLIP ViT-B/16", 101usize), ("AlignBind-B", 16), ("Flint-v0.5-1B", 1)];
        let instance = Instance::on_fleet(Fleet::standard_testbed(), &models).unwrap();
        let requests: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(id, &(model, units))| {
                let mut q = instance.request(id as u64, models[model].0).unwrap();
                if let Some(units) = units {
                    q.shape_mut().profile.text_units = units;
                }
                q
            })
            .collect();
        let plan = Plan::greedy(&instance, requests).unwrap();

        // One table per distinct (model, profile) — no more, no fewer.
        let mut tables: Vec<&Route> = Vec::new();
        for (_, r) in &plan.routed {
            if !tables.iter().any(|t| t.shares_assignments(r)) {
                tables.push(r);
            }
        }
        let distinct: std::collections::BTreeSet<_> = plan
            .routed
            .iter()
            .map(|(q, _)| (q.model.clone(), q.profile.text_units.to_bits()))
            .collect();
        prop_assert_eq!(tables.len(), distinct.len());

        let private = Plan {
            placement: plan.placement.clone(),
            routed: plan
                .routed
                .iter()
                .map(|(q, r)| {
                    let mut own = Route::new(r.request_id);
                    for (m, d) in r.iter() {
                        own.assign(m.clone(), d.clone());
                    }
                    (q.clone(), own)
                })
                .collect(),
        };
        prop_assert_eq!(&plan, &private);
        let json = serde_json::to_string(&plan).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&private).unwrap());
        let back: Plan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &plan);
    }

    /// `validate` checks (4b)/(4c) once per (deployment, table) rather
    /// than once per request, and finds the deployment once per shape.
    /// Whatever is wrong with one request — planted at a random position
    /// among requests that share shapes and tables, or hold equal but
    /// private shapes — it must report exactly what checking every
    /// request on its own reports: the same first error at the same
    /// request, or none.
    #[test]
    fn validate_once_per_table_equals_validate_per_request(
        picks in proptest::collection::vec((0usize..4, 0u8..2), 1..40),
        at in 0usize..40,
        fault in 0u8..8,
    ) {
        let models = [
            ("CLIP ViT-B/16", 101usize),
            ("Encoder-only VQA (Small)", 1),
            ("AlignBind-B", 16),
            ("Flint-v0.5-1B", 1),
        ];
        let instance = Instance::on_fleet(Fleet::standard_testbed(), &models).unwrap();
        let templates: Vec<Request> = models
            .iter()
            .map(|(name, _)| instance.request(0, name).unwrap())
            .collect();
        let requests: Vec<_> = picks
            .iter()
            .enumerate()
            .map(|(id, &(m, shared))| {
                if shared == 1 {
                    let mut q = templates[m].clone();
                    q.id = id as u64;
                    q
                } else {
                    instance.request(id as u64, models[m].0).unwrap()
                }
            })
            .collect();
        let Plan { placement, mut routed } = Plan::greedy(&instance, requests).unwrap();

        let at = at % routed.len();
        let module = routed[at].1.iter().next().unwrap().0.clone();
        match fault {
            // A private table routing one module to a device that does
            // not host it.
            0 => {
                let wrong = instance
                    .fleet()
                    .devices()
                    .iter()
                    .map(|d| d.id.clone())
                    .find(|d| !placement.is_placed(&module, d))
                    .unwrap();
                routed[at].1.assign(module, wrong);
            }
            // A private table missing every module but one.
            1 => {
                let host = routed[at].1.device_for(&module).unwrap().clone();
                let mut partial = Route::new(routed[at].1.request_id);
                partial.assign(module, host);
                routed[at].1 = partial;
            }
            // Another request's table, shared: valid for that request's
            // model, (usually) not for this one.
            2 => {
                let other = (at + 1) % routed.len();
                let mut borrowed = routed[other].1.clone();
                borrowed.request_id = routed[at].1.request_id;
                routed[at].1 = borrowed;
            }
            // An undeployed model on a shape of its own.
            3 => routed[at].0.shape_mut().model = "ghost".into(),
            // A private but correct copy: the memo must not mind.
            4 => {
                let (m, d) = routed[at].1.iter().next().map(|(m, d)| (m.clone(), d.clone())).unwrap();
                routed[at].1.assign(m, d);
            }
            // An undeployed model on a shape later requests share.
            5 => {
                routed[at].0.shape_mut().model = "ghost".into();
                let ghost = routed[at].0.clone();
                for (later, _) in routed.iter_mut().skip(at + 2).step_by(2) {
                    let id = later.id;
                    *later = ghost.clone();
                    later.id = id;
                }
            }
            // Another request's *shape*, shared, under this request's
            // table: a shape seen before says nothing about the table.
            6 => {
                let other = (at + 1) % routed.len();
                let id = routed[at].0.id;
                routed[at].0 = routed[other].0.clone();
                routed[at].0.id = id;
            }
            _ => {}
        }

        let per_request = routed
            .iter()
            .try_for_each(|pair| validate(&instance, &placement, std::slice::from_ref(pair)));
        prop_assert_eq!(validate(&instance, &placement, &routed), per_request.clone());
        // ... and at the same request: the prefix before the first bad
        // one passes, the prefix ending with it does not.
        if let Some(bad) = routed
            .iter()
            .position(|pair| validate(&instance, &placement, std::slice::from_ref(pair)).is_err())
        {
            prop_assert_eq!(validate(&instance, &placement, &routed[..bad]), Ok(()));
            prop_assert_eq!(validate(&instance, &placement, &routed[..=bad]), per_request.clone());
        }
        match fault {
            0 => prop_assert!(matches!(per_request, Err(s2m3::core::CoreError::NotHosted { .. }))),
            1 => prop_assert!(matches!(per_request, Err(s2m3::core::CoreError::Unrouted(_)))),
            3 | 5 => prop_assert_eq!(per_request, Err(s2m3::core::CoreError::UnknownModel("ghost".into()))),
            2 | 6 => {}
            _ => prop_assert_eq!(per_request, Ok(())),
        }
    }

    /// Replanning onto an unchanged fleet is a no-op; replanning onto a
    /// strictly larger fleet never increases latency.
    #[test]
    fn replanning_is_monotone(candidates in 4usize..128) {
        let edge = Instance::single_model("CLIP ViT-B/16", candidates).unwrap();
        let old = s2m3::core::placement::greedy_place(&edge).unwrap();
        let same = s2m3::core::adaptive::replan(&edge, &old).unwrap();
        prop_assert!(same.migrations.is_empty());
        let bigger = edge.with_fleet(Fleet::standard_testbed()).unwrap();
        let up = s2m3::core::adaptive::replan(&bigger, &old).unwrap();
        // Greedy is a heuristic: adding a device usually helps and never
        // regresses by more than its myopia allows (bounded, not strict,
        // monotonicity — the server's per-execution overhead can make it
        // a bad home for mid-size batches the greedy still picks).
        prop_assert!(
            up.new_latency_s <= up.old_latency_s.unwrap() * 1.3 + 0.2,
            "grew fleet, latency {} -> {}", up.old_latency_s.unwrap(), up.new_latency_s
        );
    }
}
