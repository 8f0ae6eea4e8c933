//! Cluster churn: deterministic membership-change schedules.
//!
//! A fail-stop model scripts devices that die and never return. Real
//! edge fleets *churn*: devices leave, rejoin (possibly at a different
//! clock), join fresh, or get re-provisioned mid-stream. This module
//! scripts both as one [`ClusterSchedule`] of [`ChurnEvent`]s — the
//! only departure script in the workspace — that the pipeline runtime
//! and the discrete-event simulator consume alike, each epoch's
//! [`ChurnEpoch::leaves`] being the `(device, from_task)` slice both
//! take:
//!
//! * [`ClusterSchedule`] — plain data, sorted by task index, so the
//!   same schedule replayed against the same plan and seed reproduces
//!   the same membership trajectory byte-for-byte;
//! * [`ChurnMembership`] — the re-admission state machine. Every event
//!   is checked against the per-device `Active`/`Departed` state, so an
//!   invalid script (rejoin of a live device, leave of a ghost) is a
//!   typed [`ChurnError`] instead of silent nonsense;
//! * [`ChurnEpoch`] — the executable view: the schedule sliced at each
//!   *re-admission boundary* (any `join`/`rejoin`/`recapacity` task
//!   index). Within an epoch membership only shrinks, which is exactly
//!   the fail-stop model the runtime's recovery path already handles;
//!   across a boundary the orchestrator re-plans on the new live
//!   cluster and audit-gates the swap.
//!
//! Leave events inside an epoch are re-based to *epoch-relative* task
//! indices. This is what makes a rejoined device a fresh worker: the
//! next epoch's failure script cannot match it, so no stale per-task
//! failure or backoff state leaks across the boundary.
//!
//! The script grammar (one event per line, `#` comments):
//!
//! ```text
//! leave <device>@<task>
//! rejoin <device>@<task> [<ghz>]
//! join <device>@<task> <ghz>
//! recapacity <device>@<task> <ghz>
//! ```

use std::collections::BTreeMap;

use crate::device::FLOPS_PER_CYCLE;
use crate::{Cluster, Device};

/// What happens to a device at a scheduled task index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnKind {
    /// The device fail-stops: it errors on every task of its epoch from
    /// the scheduled index on (the fail-stop model, now with a way
    /// back).
    Leave,
    /// A previously departed device returns. With `ghz` set it comes
    /// back at a different clock (capacity `ghz · 10⁹ ·
    /// FLOPS_PER_CYCLE`); `None` restores its last known capacity.
    Rejoin {
        /// Optional new clock in GHz.
        ghz: Option<f64>,
    },
    /// A device never seen before joins the cluster at the given clock.
    Join {
        /// Clock in GHz.
        ghz: f64,
    },
    /// A live device is re-provisioned to a new clock mid-stream
    /// (thermal throttling, DVFS, a hardware swap keeping the id).
    Recapacity {
        /// New clock in GHz.
        ghz: f64,
    },
}

/// One scheduled membership change: `kind` applied to `device` when the
/// stream reaches task `at_task` (submission order, 0-based).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// The device the event applies to.
    pub device: usize,
    /// First task index (submission order) the new membership holds for.
    pub at_task: usize,
    /// What changes.
    pub kind: ChurnKind,
}

impl ChurnEvent {
    /// Whether this event changes membership in a way that requires a
    /// re-plan (everything except a plain leave, which the degraded
    /// recovery path absorbs without one).
    pub fn is_boundary(&self) -> bool {
        !matches!(self.kind, ChurnKind::Leave)
    }
}

impl std::fmt::Display for ChurnEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ChurnKind::Leave => write!(f, "leave {}@{}", self.device, self.at_task),
            ChurnKind::Rejoin { ghz: None } => {
                write!(f, "rejoin {}@{}", self.device, self.at_task)
            }
            ChurnKind::Rejoin { ghz: Some(g) } => {
                write!(f, "rejoin {}@{} {g}", self.device, self.at_task)
            }
            ChurnKind::Join { ghz } => write!(f, "join {}@{} {ghz}", self.device, self.at_task),
            ChurnKind::Recapacity { ghz } => {
                write!(f, "recapacity {}@{} {ghz}", self.device, self.at_task)
            }
        }
    }
}

/// Typed churn failures: invalid membership transitions and script
/// parse errors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChurnError {
    /// A leave/rejoin/recapacity names a device the cluster has never
    /// contained.
    UnknownDevice {
        /// The unknown device id.
        device: usize,
        /// The offending event's task index.
        at_task: usize,
    },
    /// A leave or recapacity targets a device that has already departed.
    NotActive {
        /// The departed device id.
        device: usize,
        /// The offending event's task index.
        at_task: usize,
    },
    /// A rejoin targets a device that never left.
    AlreadyActive {
        /// The still-live device id.
        device: usize,
        /// The offending event's task index.
        at_task: usize,
    },
    /// A join reuses an id the cluster already knows (use `rejoin` for
    /// returning devices).
    DuplicateJoin {
        /// The duplicated device id.
        device: usize,
        /// The offending event's task index.
        at_task: usize,
    },
    /// The schedule leaves no live device at a re-admission boundary.
    EmptyCluster {
        /// Task index where membership became empty.
        at_task: usize,
    },
    /// A script line did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::UnknownDevice { device, at_task } => {
                write!(
                    f,
                    "churn event at task {at_task} names unknown device {device}"
                )
            }
            ChurnError::NotActive { device, at_task } => write!(
                f,
                "churn event at task {at_task} targets device {device}, which has already departed"
            ),
            ChurnError::AlreadyActive { device, at_task } => write!(
                f,
                "rejoin at task {at_task} targets device {device}, which never left"
            ),
            ChurnError::DuplicateJoin { device, at_task } => write!(
                f,
                "join at task {at_task} reuses existing device id {device} (use rejoin)"
            ),
            ChurnError::EmptyCluster { at_task } => {
                write!(f, "churn schedule leaves no live device at task {at_task}")
            }
            ChurnError::Parse { line, detail } => {
                write!(f, "churn script line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// A deterministic script of membership changes — the churn
/// generalization of the fail-stop failure schedule.
///
/// Schedules are plain data: events sort stably by task index, so the
/// same schedule against the same plan and seed reproduces the same
/// epoch sequence, which is what lets the churn chaos harness assert
/// bit-exact outputs across leave/rejoin cycles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterSchedule {
    events: Vec<ChurnEvent>,
}

impl ClusterSchedule {
    /// An empty schedule (no membership changes).
    pub fn new() -> Self {
        ClusterSchedule::default()
    }

    /// Adds a leave: `device` fail-stops from task `at_task` on.
    pub fn leave(mut self, device: usize, at_task: usize) -> Self {
        self.push(ChurnEvent {
            device,
            at_task,
            kind: ChurnKind::Leave,
        });
        self
    }

    /// Adds a rejoin at the device's last known capacity.
    pub fn rejoin(mut self, device: usize, at_task: usize) -> Self {
        self.push(ChurnEvent {
            device,
            at_task,
            kind: ChurnKind::Rejoin { ghz: None },
        });
        self
    }

    /// Adds a rejoin at a new clock (GHz).
    pub fn rejoin_at(mut self, device: usize, at_task: usize, ghz: f64) -> Self {
        self.push(ChurnEvent {
            device,
            at_task,
            kind: ChurnKind::Rejoin { ghz: Some(ghz) },
        });
        self
    }

    /// Adds a join of a brand-new device at the given clock (GHz).
    pub fn join(mut self, device: usize, at_task: usize, ghz: f64) -> Self {
        self.push(ChurnEvent {
            device,
            at_task,
            kind: ChurnKind::Join { ghz },
        });
        self
    }

    /// Adds a mid-stream re-provisioning of a live device to `ghz`.
    pub fn recapacity(mut self, device: usize, at_task: usize, ghz: f64) -> Self {
        self.push(ChurnEvent {
            device,
            at_task,
            kind: ChurnKind::Recapacity { ghz },
        });
        self
    }

    /// Appends an event, keeping events stably sorted by task index
    /// (ties keep insertion order).
    pub fn push(&mut self, event: ChurnEvent) {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at_task);
    }

    /// The events, sorted by task index (insertion order within a task).
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Whether the schedule changes nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Parses the churn script grammar: one event per line
    /// (`leave 1@2`, `rejoin 1@4`, `rejoin 1@4 0.8`, `join 9@3 1.0`,
    /// `recapacity 0@5 0.6`), blank lines and `#` comments ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ChurnError::Parse`] with the 1-based line number on
    /// malformed input. Membership validity is *not* checked here — it
    /// depends on the cluster, so it surfaces from
    /// [`ClusterSchedule::epochs`] (or the churn audit pass).
    pub fn parse(script: &str) -> Result<Self, ChurnError> {
        let mut schedule = ClusterSchedule::new();
        for (idx, raw) in script.lines().enumerate() {
            let line = idx + 1;
            let text = raw.split('#').next().unwrap_or("").trim();
            if text.is_empty() {
                continue;
            }
            let mut words = text.split_whitespace();
            let err = |detail: String| ChurnError::Parse { line, detail };
            let verb = words.next().ok_or_else(|| err("empty event".into()))?;
            let target = words
                .next()
                .ok_or_else(|| err(format!("`{verb}` needs a <device>@<task> target")))?;
            let (device, at_task) = parse_target(target).map_err(&err)?;
            let ghz = words
                .next()
                .map(|w| {
                    w.parse::<f64>()
                        .ok()
                        .filter(|g| g.is_finite() && *g > 0.0)
                        .ok_or_else(|| err(format!("`{w}` is not a positive GHz value")))
                })
                .transpose()?;
            if let Some(extra) = words.next() {
                return Err(err(format!("unexpected trailing token `{extra}`")));
            }
            let kind = match (verb, ghz) {
                ("leave", None) => ChurnKind::Leave,
                ("leave", Some(_)) => {
                    return Err(err("`leave` takes no GHz argument".into()));
                }
                ("rejoin", ghz) => ChurnKind::Rejoin { ghz },
                ("join", Some(ghz)) => ChurnKind::Join { ghz },
                ("join", None) => {
                    return Err(err("`join` needs a GHz argument".into()));
                }
                ("recapacity", Some(ghz)) => ChurnKind::Recapacity { ghz },
                ("recapacity", None) => {
                    return Err(err("`recapacity` needs a GHz argument".into()));
                }
                _ => {
                    return Err(err(format!(
                        "unknown event `{verb}` (expected leave/rejoin/join/recapacity)"
                    )));
                }
            };
            schedule.push(ChurnEvent {
                device,
                at_task,
                kind,
            });
        }
        Ok(schedule)
    }

    /// Slices the schedule into executable [`ChurnEpoch`]s against the
    /// initial cluster, validating every membership transition along
    /// the way.
    ///
    /// Epoch boundaries fall at every distinct task index carrying a
    /// re-admission event (`join`/`rejoin`/`recapacity`); plain leaves
    /// stay inside their epoch as epoch-relative fail-stop entries.
    /// Events at the same boundary apply admissions before leaves, so a
    /// `rejoin 1@4` + `leave 2@4` pair yields one epoch whose cluster
    /// contains device 1 and whose failure script kills device 2 at
    /// relative task 0.
    ///
    /// # Errors
    ///
    /// Any invalid transition ([`ChurnError::UnknownDevice`],
    /// [`NotActive`](ChurnError::NotActive),
    /// [`AlreadyActive`](ChurnError::AlreadyActive),
    /// [`DuplicateJoin`](ChurnError::DuplicateJoin)) or a boundary with
    /// no live device ([`ChurnError::EmptyCluster`]).
    pub fn epochs(&self, initial: &Cluster) -> Result<Vec<ChurnEpoch>, ChurnError> {
        let mut membership = ChurnMembership::new(initial);
        let mut epochs: Vec<ChurnEpoch> = Vec::new();
        let mut start = 0usize;
        let mut snapshot = initial.clone();
        let mut leaves: Vec<(usize, usize)> = Vec::new();
        let mut admitted: Vec<usize> = Vec::new();
        let mut resized: Vec<usize> = Vec::new();

        let mut i = 0;
        while i < self.events.len() {
            let at = self.events[i].at_task;
            let mut j = i;
            while j < self.events.len() && self.events[j].at_task == at {
                j += 1;
            }
            let group = &self.events[i..j];
            let boundary = group.iter().any(ChurnEvent::is_boundary);
            if boundary && at > start {
                epochs.push(ChurnEpoch {
                    start_task: start,
                    cluster: snapshot.clone(),
                    leaves: std::mem::take(&mut leaves),
                    admitted: std::mem::take(&mut admitted),
                    resized: std::mem::take(&mut resized),
                });
                start = at;
            }
            // Admissions and re-provisionings first, then leaves: a
            // device admitted and killed at the same index lives in the
            // new epoch's cluster and dies at relative task 0.
            for e in group.iter().filter(|e| e.is_boundary()) {
                membership.apply(e)?;
                match e.kind {
                    ChurnKind::Recapacity { .. } => resized.push(e.device),
                    _ => admitted.push(e.device),
                }
            }
            if boundary {
                snapshot = membership.live_cluster(at)?;
            }
            for e in group.iter().filter(|e| !e.is_boundary()) {
                membership.apply(e)?;
                leaves.push((e.device, at - start));
            }
            i = j;
        }
        epochs.push(ChurnEpoch {
            start_task: start,
            cluster: snapshot,
            leaves,
            admitted,
            resized,
        });
        Ok(epochs)
    }
}

impl std::fmt::Display for ClusterSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

fn parse_target(word: &str) -> Result<(usize, usize), String> {
    let (device, task) = word
        .split_once('@')
        .ok_or_else(|| format!("`{word}` is not <device>@<task>"))?;
    let device = device
        .parse::<usize>()
        .map_err(|_| format!("`{device}` is not a device id"))?;
    let task = task
        .parse::<usize>()
        .map_err(|_| format!("`{task}` is not a task index"))?;
    Ok((device, task))
}

/// Per-device membership state the re-admission machine tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemberState {
    Active,
    Departed,
}

/// The re-admission state machine: every known device is `Active` or
/// `Departed`, and each [`ChurnEvent`] is a checked transition
/// (`leave`: Active → Departed; `rejoin`: Departed → Active; `join`:
/// unknown → Active; `recapacity`: Active → Active at a new clock).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnMembership {
    /// Device id → (last known hardware, state). `BTreeMap` keeps
    /// iteration deterministic by id.
    devices: BTreeMap<usize, (Device, MemberState)>,
}

impl ChurnMembership {
    /// Starts from `cluster` with every device active.
    pub fn new(cluster: &Cluster) -> Self {
        ChurnMembership {
            devices: cluster
                .devices()
                .iter()
                .map(|d| (d.id, (d.clone(), MemberState::Active)))
                .collect(),
        }
    }

    /// Applies one event, enforcing the transition rules.
    ///
    /// # Errors
    ///
    /// The typed [`ChurnError`] for any invalid transition; state is
    /// unchanged on error.
    pub fn apply(&mut self, event: &ChurnEvent) -> Result<(), ChurnError> {
        let ChurnEvent {
            device,
            at_task,
            kind,
        } = *event;
        match kind {
            ChurnKind::Leave => match self.devices.get_mut(&device) {
                None => Err(ChurnError::UnknownDevice { device, at_task }),
                Some((_, s @ MemberState::Active)) => {
                    *s = MemberState::Departed;
                    Ok(())
                }
                Some((_, MemberState::Departed)) => Err(ChurnError::NotActive { device, at_task }),
            },
            ChurnKind::Rejoin { ghz } => match self.devices.get_mut(&device) {
                None => Err(ChurnError::UnknownDevice { device, at_task }),
                Some((_, MemberState::Active)) => {
                    Err(ChurnError::AlreadyActive { device, at_task })
                }
                Some((d, s @ MemberState::Departed)) => {
                    if let Some(ghz) = ghz {
                        reclock(d, ghz);
                    }
                    *s = MemberState::Active;
                    Ok(())
                }
            },
            ChurnKind::Join { ghz } => {
                if self.devices.contains_key(&device) {
                    return Err(ChurnError::DuplicateJoin { device, at_task });
                }
                self.devices.insert(
                    device,
                    (Device::from_frequency(device, ghz), MemberState::Active),
                );
                Ok(())
            }
            ChurnKind::Recapacity { ghz } => match self.devices.get_mut(&device) {
                None => Err(ChurnError::UnknownDevice { device, at_task }),
                Some((_, MemberState::Departed)) => Err(ChurnError::NotActive { device, at_task }),
                Some((d, MemberState::Active)) => {
                    reclock(d, ghz);
                    Ok(())
                }
            },
        }
    }

    /// Whether `device` is currently active.
    pub fn is_active(&self, device: usize) -> bool {
        matches!(self.devices.get(&device), Some((_, MemberState::Active)))
    }

    /// Number of active devices.
    pub fn active_count(&self) -> usize {
        self.devices
            .values()
            .filter(|(_, s)| *s == MemberState::Active)
            .count()
    }

    /// The live cluster (active devices in ascending id order).
    ///
    /// # Errors
    ///
    /// [`ChurnError::EmptyCluster`] when nothing is active; `at_task`
    /// labels the error with the boundary being materialized.
    pub fn live_cluster(&self, at_task: usize) -> Result<Cluster, ChurnError> {
        let live: Vec<Device> = self
            .devices
            .values()
            .filter(|(_, s)| *s == MemberState::Active)
            .map(|(d, _)| d.clone())
            .collect();
        if live.is_empty() {
            Err(ChurnError::EmptyCluster { at_task })
        } else {
            Ok(Cluster::new(live))
        }
    }
}

fn reclock(d: &mut Device, ghz: f64) {
    assert!(ghz.is_finite() && ghz > 0.0, "GHz must be positive");
    d.capacity = ghz * 1e9 * FLOPS_PER_CYCLE;
    d.name = format!("pi-{} @{ghz}GHz", d.id);
}

/// One executable slice of a churn schedule: the task range starting at
/// [`start_task`](ChurnEpoch::start_task), the live cluster at its
/// start, and the fail-stop script (epoch-relative task indices) to
/// apply within it.
///
/// Epoch-relative leaves are the fresh-worker guarantee: a device that
/// left in epoch `n` and rejoined at epoch `n + 1` appears in the new
/// epoch's cluster with **no** surviving failure entry, so the gather/
/// retry path treats it exactly like a device that never failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEpoch {
    /// Global task index (submission order) the epoch starts at.
    pub start_task: usize,
    /// Live membership at the epoch's start.
    pub cluster: Cluster,
    /// Fail-stop entries within the epoch: `(device, from_task)` with
    /// `from_task` relative to [`start_task`](ChurnEpoch::start_task).
    pub leaves: Vec<(usize, usize)>,
    /// Devices (re-)admitted at this epoch's boundary.
    pub admitted: Vec<usize>,
    /// Devices re-provisioned to a new capacity at this boundary.
    pub resized: Vec<usize>,
}

impl ChurnEpoch {
    /// Whether this epoch begins with a membership gain or change that
    /// requires an audit-gated re-plan.
    pub fn needs_replan(&self) -> bool {
        !self.admitted.is_empty() || !self.resized.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pi4() -> Cluster {
        Cluster::pi_cluster(4, 1.0)
    }

    #[test]
    fn empty_schedule_is_one_epoch() {
        let epochs = ClusterSchedule::new().epochs(&pi4()).unwrap();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].start_task, 0);
        assert_eq!(epochs[0].cluster, pi4());
        assert!(epochs[0].leaves.is_empty());
        assert!(!epochs[0].needs_replan());
    }

    #[test]
    fn leave_only_schedule_stays_one_epoch() {
        let s = ClusterSchedule::new().leave(1, 2).leave(3, 5);
        let epochs = s.epochs(&pi4()).unwrap();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].leaves, vec![(1, 2), (3, 5)]);
    }

    #[test]
    fn leave_then_rejoin_splits_epochs_and_rebases_leaves() {
        let s = ClusterSchedule::new().leave(1, 1).rejoin(1, 3).leave(2, 4);
        let epochs = s.epochs(&pi4()).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].start_task, 0);
        assert_eq!(epochs[0].leaves, vec![(1, 1)]);
        assert_eq!(epochs[1].start_task, 3);
        assert_eq!(epochs[1].admitted, vec![1]);
        // The rejoined device is back in the live cluster, and the
        // later leave is rebased to the epoch-relative index 4 - 3 = 1.
        assert!(epochs[1].cluster.device(1).is_some());
        assert_eq!(epochs[1].leaves, vec![(2, 1)]);
        assert!(epochs[1].needs_replan());
    }

    #[test]
    fn rejoined_device_carries_no_stale_failure_entry() {
        // The fresh-worker regression: after a flap, the final epoch's
        // failure script must not mention the rejoined device at all.
        let s = ClusterSchedule::new()
            .leave(1, 1)
            .rejoin(1, 2)
            .leave(1, 3)
            .rejoin(1, 4);
        let epochs = s.epochs(&pi4()).unwrap();
        assert_eq!(epochs.len(), 3);
        let last = epochs.last().unwrap();
        assert_eq!(last.start_task, 4);
        assert!(last.cluster.device(1).is_some());
        assert!(
            last.leaves.iter().all(|(d, _)| *d != 1),
            "stale failure entry leaked across the rejoin: {:?}",
            last.leaves
        );
    }

    #[test]
    fn rejoin_with_new_clock_changes_capacity() {
        let s = ClusterSchedule::new().leave(0, 1).rejoin_at(0, 2, 0.5);
        let epochs = s.epochs(&pi4()).unwrap();
        let d = epochs[1].cluster.device(0).unwrap();
        assert_eq!(d.capacity, 0.5e9 * FLOPS_PER_CYCLE);
    }

    #[test]
    fn recapacity_resizes_in_place() {
        let s = ClusterSchedule::new().recapacity(2, 3, 0.6);
        let epochs = s.epochs(&pi4()).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[1].resized, vec![2]);
        assert!(epochs[1].admitted.is_empty());
        assert_eq!(
            epochs[1].cluster.device(2).unwrap().capacity,
            0.6e9 * FLOPS_PER_CYCLE
        );
        // Epoch 0 still sees the original hardware.
        assert_eq!(
            epochs[0].cluster.device(2).unwrap().capacity,
            1.0e9 * FLOPS_PER_CYCLE
        );
    }

    #[test]
    fn join_adds_a_new_device() {
        let s = ClusterSchedule::new().join(9, 2, 1.2);
        let epochs = s.epochs(&pi4()).unwrap();
        assert_eq!(epochs[1].cluster.len(), 5);
        assert_eq!(
            epochs[1].cluster.device(9).unwrap().capacity,
            1.2e9 * FLOPS_PER_CYCLE
        );
    }

    #[test]
    fn invalid_transitions_are_typed() {
        let c = pi4();
        assert_eq!(
            ClusterSchedule::new().leave(7, 1).epochs(&c),
            Err(ChurnError::UnknownDevice {
                device: 7,
                at_task: 1
            })
        );
        assert_eq!(
            ClusterSchedule::new().rejoin(1, 1).epochs(&c),
            Err(ChurnError::AlreadyActive {
                device: 1,
                at_task: 1
            })
        );
        assert_eq!(
            ClusterSchedule::new().join(1, 1, 1.0).epochs(&c),
            Err(ChurnError::DuplicateJoin {
                device: 1,
                at_task: 1
            })
        );
        assert_eq!(
            ClusterSchedule::new().leave(1, 1).leave(1, 2).epochs(&c),
            Err(ChurnError::NotActive {
                device: 1,
                at_task: 2
            })
        );
        assert_eq!(
            ClusterSchedule::new()
                .leave(0, 1)
                .recapacity(0, 2, 1.0)
                .epochs(&c),
            Err(ChurnError::NotActive {
                device: 0,
                at_task: 2
            })
        );
    }

    #[test]
    fn membership_reports_empty_cluster() {
        // Every epoch boundary admits at least one device, so epochs()
        // can never see an empty live set — but the state machine's
        // direct consumers (the churn audit pass) can.
        let c = Cluster::pi_cluster(1, 1.0);
        let mut m = ChurnMembership::new(&c);
        m.apply(&ChurnEvent {
            device: 0,
            at_task: 1,
            kind: ChurnKind::Leave,
        })
        .unwrap();
        assert_eq!(m.active_count(), 0);
        assert!(!m.is_active(0));
        assert_eq!(
            m.live_cluster(1),
            Err(ChurnError::EmptyCluster { at_task: 1 })
        );
        // A cross-epoch flap drains and refills the single device.
        let s = ClusterSchedule::new().leave(0, 1).rejoin(0, 3);
        let epochs = s.epochs(&c).unwrap();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[1].cluster.len(), 1);
    }

    #[test]
    fn script_round_trips() {
        let script = "\
# a flapping device
leave 1@1
rejoin 1@2
leave 1@3   # second drop
rejoin 1@4 0.8
join 9@5 1.2
recapacity 0@6 0.6
";
        let s = ClusterSchedule::parse(script).unwrap();
        assert_eq!(s.len(), 6);
        let printed = s.to_string();
        let reparsed = ClusterSchedule::parse(&printed).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn script_errors_carry_line_numbers() {
        let cases = [
            ("boot 1@2", 1),
            ("leave 1", 1),
            ("leave x@2", 1),
            ("leave 1@y", 1),
            ("join 9@2", 1),
            ("recapacity 0@2", 1),
            ("leave 1@2 0.5", 1),
            ("rejoin 1@2 -3", 1),
            ("leave 1@2\njoin 9@3 1.0 extra", 2),
        ];
        for (script, want_line) in cases {
            match ClusterSchedule::parse(script) {
                Err(ChurnError::Parse { line, .. }) => {
                    assert_eq!(line, want_line, "script {script:?}")
                }
                other => panic!("script {script:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn events_sort_stably_by_task() {
        let s = ClusterSchedule::new().leave(3, 5).leave(1, 2).leave(2, 5);
        let order: Vec<(usize, usize)> = s.events().iter().map(|e| (e.at_task, e.device)).collect();
        assert_eq!(order, vec![(2, 1), (5, 3), (5, 2)]);
    }

    #[test]
    fn display_is_the_script_grammar() {
        let s = ClusterSchedule::new().leave(1, 2).rejoin_at(1, 4, 0.8);
        assert_eq!(s.to_string(), "leave 1@2\nrejoin 1@4 0.8\n");
    }
}
