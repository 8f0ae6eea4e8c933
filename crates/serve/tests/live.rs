//! Live-mode smoke tests: the threaded serving front-end against the
//! real pipelined runtime.

use std::time::{Duration, Instant};

use pico_model::zoo;
use pico_partition::{Cluster, CostParams, OptimalFused, PlanRequest, Planner};
use pico_serve::{ServeError, ServeHandle, ServeRequest, ServeTicket, TenantPolicy};
use pico_telemetry::clock::wall_now;
use pico_tensor::{Engine, Tensor};

fn setup() -> (pico_model::Model, Cluster, CostParams) {
    (
        zoo::toy(4),
        Cluster::pi_cluster(4, 1.0),
        CostParams::default(),
    )
}

fn pico_plan(m: &pico_model::Model, c: &Cluster, p: &CostParams) -> pico_partition::Plan {
    pico_partition::PicoPlanner::new()
        .plan(&PlanRequest::new(m, c, p))
        .unwrap()
}

#[test]
fn live_outputs_match_single_device_inference() {
    let (m, c, p) = setup();
    let plan = pico_plan(&m, &c, &p);
    let request = ServeRequest::new()
        .with_tenants(vec![TenantPolicy::default(); 2])
        .with_engine_seed(5);
    let handle = ServeHandle::spawn(m.clone(), c, p, plan, &request).unwrap();

    let inputs: Vec<Tensor> = (0..12)
        .map(|k| Tensor::random(m.input_shape(), 100 + k))
        .collect();
    let tickets: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(k, input)| handle.submit(k % 2, input.clone()).unwrap())
        .collect();

    let reference = Engine::with_seed(&m, 5);
    for (ticket, input) in tickets.into_iter().zip(&inputs) {
        let out = ticket.wait().unwrap();
        let expect = reference.infer(input).unwrap();
        assert_eq!(out.data(), expect.data(), "served output must be bit-exact");
    }

    let outcome = handle.shutdown().unwrap();
    assert_eq!(outcome.per_tenant.len(), 2);
    for t in &outcome.per_tenant {
        assert_eq!(t.admitted, 6);
        assert_eq!(t.completed, 6);
        assert_eq!(t.rejected, 0);
    }
    assert!(outcome.batches >= 1);
    assert_eq!(outcome.swaps, 0);
    assert_eq!(outcome.epochs, 1);
}

#[test]
fn warm_swap_mid_service_drops_nothing() {
    let (m, c, p) = setup();
    let plan = pico_plan(&m, &c, &p);
    let fused = OptimalFused::new()
        .plan(&PlanRequest::new(&m, &c, &p))
        .unwrap();
    let request = ServeRequest::new().with_engine_seed(9);
    let handle = ServeHandle::spawn(m.clone(), c, p, plan, &request).unwrap();

    let reference = Engine::with_seed(&m, 9);
    let before: Vec<_> = (0..4)
        .map(|k| {
            let input = Tensor::random(m.input_shape(), 200 + k);
            (handle.submit(0, input.clone()).unwrap(), input)
        })
        .collect();
    handle.swap(fused).unwrap();
    let after: Vec<_> = (0..4)
        .map(|k| {
            let input = Tensor::random(m.input_shape(), 300 + k);
            (handle.submit(0, input.clone()).unwrap(), input)
        })
        .collect();
    for (ticket, input) in before.into_iter().chain(after) {
        let out = ticket.wait().unwrap();
        assert_eq!(out.data(), reference.infer(&input).unwrap().data());
    }
    let outcome = handle.shutdown().unwrap();
    assert_eq!(outcome.swaps, 1);
    assert_eq!(outcome.epochs, 2);
    assert_eq!(outcome.per_tenant[0].admitted, 8);
    assert_eq!(outcome.per_tenant[0].completed, 8);
    assert_eq!(outcome.per_tenant[0].rejected, 0);
}

#[test]
fn unknown_tenant_and_bad_config_are_typed_errors() {
    let (m, c, p) = setup();
    let plan = pico_plan(&m, &c, &p);

    let bad = ServeRequest::new().with_tenants(vec![]);
    match ServeHandle::spawn(m.clone(), c.clone(), p, plan.clone(), &bad) {
        Err(ServeError::InvalidConfig { violations }) => assert!(!violations.is_empty()),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("expected InvalidConfig, got a handle"),
    }

    let handle = ServeHandle::spawn(m.clone(), c, p, plan, &ServeRequest::new()).unwrap();
    match handle.submit(3, Tensor::random(m.input_shape(), 1)) {
        Err(ServeError::UnknownTenant {
            tenant: 3,
            tenants: 1,
        }) => {}
        Err(other) => panic!("expected UnknownTenant, got {other:?}"),
        Ok(_) => panic!("expected UnknownTenant, got a ticket"),
    }
    let outcome = handle.shutdown().unwrap();
    assert_eq!(outcome.per_tenant[0].admitted, 0);
}

/// A server whose one traversal is well under a millisecond, so the
/// latency tests below measure the front-end, not the convolutions.
fn tiny_server() -> (pico_model::Model, ServeHandle) {
    let (m, c, p) = (
        zoo::toy(1),
        Cluster::pi_cluster(2, 1.0),
        CostParams::default(),
    );
    let plan = pico_plan(&m, &c, &p);
    let handle = ServeHandle::spawn(m.clone(), c, p, plan, &ServeRequest::new()).unwrap();
    (m, handle)
}

/// Median of `samples`, in milliseconds.
fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// Nothing holds a lone request on an idle server: it is one pipeline
/// traversal away from its answer, not a wait for batch-mates or for a
/// quiet period to elapse.
#[test]
fn lone_request_on_an_idle_server_is_served_at_once() {
    let (m, handle) = tiny_server();
    let input = Tensor::random(m.input_shape(), 11);
    handle.submit(0, input.clone()).unwrap().wait().unwrap();

    let trips: Vec<Duration> = (0..20)
        .map(|_| {
            let sent = wall_now();
            handle.submit(0, input.clone()).unwrap().wait().unwrap();
            sent.elapsed()
        })
        .collect();
    let median = median_ms(trips);
    assert!(median < 5.0, "lone round trip took {median:.2} ms");
    handle.shutdown().unwrap();
}

/// A steady trickle, each arrival landing before the previous one's
/// batch-mates could have gathered: every request is still served as
/// soon as the pipeline is free.
#[test]
fn a_trickle_is_served_as_it_arrives() {
    let (m, handle) = tiny_server();
    let input = Tensor::random(m.input_shape(), 12);
    handle.submit(0, input.clone()).unwrap().wait().unwrap();

    // Tickets resolve in submission order (one tenant, FIFO), so a
    // waiter that takes them in order stamps each completion on time.
    let (tx, rx) = std::sync::mpsc::sync_channel::<(ServeTicket, Instant)>(64);
    let waiter = std::thread::spawn(move || {
        rx.iter()
            .map(|(ticket, sent)| {
                ticket.wait().unwrap();
                sent.elapsed()
            })
            .collect::<Vec<Duration>>()
    });
    let start = wall_now();
    for k in 0..40u32 {
        let due = start + Duration::from_millis(4) * k;
        std::thread::sleep(due.saturating_duration_since(wall_now()));
        let sent = wall_now();
        tx.send((handle.submit(0, input.clone()).unwrap(), sent))
            .unwrap();
    }
    drop(tx);
    let waits = waiter.join().unwrap();
    assert_eq!(waits.len(), 40);
    let median = median_ms(waits);
    assert!(median < 20.0, "trickled request waited {median:.2} ms");
    let outcome = handle.shutdown().unwrap();
    assert_eq!(outcome.per_tenant[0].admitted, 41);
    assert_eq!(outcome.per_tenant[0].completed, 41);
}

/// Shutdown with a backlog and a swap in the middle of a stream both
/// serve everything admitted: no ticket hangs, none errors.
#[test]
fn backlog_at_shutdown_and_mid_stream_swap_serve_every_ticket() {
    let (m, c, p) = setup();
    let plan = pico_plan(&m, &c, &p);
    let fused = OptimalFused::new()
        .plan(&PlanRequest::new(&m, &c, &p))
        .unwrap();
    let request = ServeRequest::new()
        .with_tenants(vec![TenantPolicy::default(); 2])
        .with_engine_seed(4);
    let handle = ServeHandle::spawn(m.clone(), c, p, plan, &request).unwrap();
    let input = Tensor::random(m.input_shape(), 13);
    let expect = Engine::with_seed(&m, 4).infer(&input).unwrap();

    let mut tickets = Vec::new();
    std::thread::scope(|scope| {
        let streamer = scope.spawn(|| {
            (0..24)
                .map(|k| {
                    // Pace the stream under the queue bound; the swap
                    // lands somewhere inside it.
                    std::thread::sleep(Duration::from_millis(1));
                    handle.submit(k % 2, input.clone()).unwrap()
                })
                .collect::<Vec<_>>()
        });
        std::thread::sleep(Duration::from_millis(6));
        handle.swap(fused).unwrap();
        tickets = streamer.join().unwrap();
    });
    // A backlog the server has had no time to look at, then Close.
    tickets.extend((0..8).map(|k| handle.submit(k % 2, input.clone()).unwrap()));
    let outcome = handle.shutdown().unwrap();
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().data(), expect.data());
    }
    assert_eq!(outcome.swaps, 1);
    for t in &outcome.per_tenant {
        assert_eq!((t.admitted, t.completed, t.rejected), (16, 16, 0));
    }
}
