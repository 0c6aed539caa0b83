//! Output checks. Each compares what the program produced against a
//! computation made apart from it (the simulated data plane, a from-scratch
//! table build, the other header-set backend) or against a property the
//! method must have (conservation, every clean report verified). None
//! compares against a stored copy of an earlier output.
//!
//! Every check returns `Err` with a one-line reason; the workloads collect
//! the reasons, and a run with any reason is reported as incorrect.

use std::collections::HashSet;

use veridp_core::{HeaderSetBackend, PathTable, VerifyOutcome};
use veridp_net::NetStatsSnapshot;
use veridp_packet::{FiveTuple, Hop, PortRef, SwitchId, TagReport};

/// One observation's identity with its transport destination port cleared:
/// the wire workloads relabel that port per round, and forwarding depends
/// on destination prefixes only.
pub type ObsKey = (PortRef, FiveTuple);

/// The identity of a report for the deviation sets.
pub fn obs_key(inport: PortRef, header: &FiveTuple) -> ObsKey {
    let mut h = *header;
    h.dst_port = 0;
    (inport, h)
}

/// Failing observations the program flagged (`alarm_keys`) against the
/// fault-free replay through the simulated switches: no undeviated packet
/// may fail, so every flagged key must be a deviated observation or a
/// corrupted frame that decoded (`leaked`); and every deviated observation
/// that was sent (`sent_deviated`) must have been flagged.
pub fn hostile_alarms(
    alarm_keys: &[ObsKey],
    deviated: &HashSet<ObsKey>,
    leaked: &HashSet<ObsKey>,
    sent_deviated: &HashSet<ObsKey>,
) -> Result<(), String> {
    let flagged: HashSet<ObsKey> = alarm_keys.iter().copied().collect();
    if let Some(k) = flagged
        .iter()
        .find(|k| !deviated.contains(k) && !leaked.contains(k))
    {
        return Err(format!(
            "report of a packet the fault-free replay shows undeviated failed: {:?} -> {:?}",
            k.0, k.1
        ));
    }
    let missed = sent_deviated.difference(&flagged).count();
    if missed > 0 {
        return Err(format!(
            "{missed} deviated observations were sent but never failed"
        ));
    }
    Ok(())
}

/// The K-of-N confirmed suspects must hold the injected switch, and any
/// other confirmed switch must be one the localization of a deviated report
/// named (`named`; those reports are counted as failed operations).
pub fn confirmed_is(
    confirmed: &[SwitchId],
    injected: SwitchId,
    named: &HashSet<SwitchId>,
) -> Result<(), String> {
    let unexplained = confirmed
        .iter()
        .any(|s| *s != injected && !named.contains(s));
    if confirmed.contains(&injected) && !unexplained {
        Ok(())
    } else {
        Err(format!(
            "confirmed suspects {confirmed:?}, expected {injected:?} and at most {named:?} beside it"
        ))
    }
}

/// The listener's conservation identity after shutdown, with nothing shed
/// and no blocked push timing out.
pub fn conserved(snap: &NetStatsSnapshot) -> Result<(), String> {
    if !snap.conserved() {
        return Err(format!(
            "conservation broken: reports {} enqueued {} shed {} verified {}",
            snap.reports, snap.enqueued, snap.shed, snap.verified
        ));
    }
    if snap.shed != 0 || snap.push_timeouts != 0 {
        return Err(format!(
            "TCP ingest shed {} reports ({} push timeouts)",
            snap.shed, snap.push_timeouts
        ));
    }
    Ok(())
}

/// Counts the wire must deliver exactly: `expect` against `got`, by name.
pub fn count_is(what: &str, expect: u64, got: u64) -> Result<(), String> {
    if expect == got {
        Ok(())
    } else {
        Err(format!("{what}: expected {expect}, got {got}"))
    }
}

/// Per-report verdicts of two independently built tables must agree.
pub fn verdicts_agree(
    a_name: &str,
    a: &[VerifyOutcome],
    b_name: &str,
    b: &[VerifyOutcome],
) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!(
            "{a_name} gave {} verdicts, {b_name} gave {}",
            a.len(),
            b.len()
        ));
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(i) => Err(format!(
            "verdict {i} differs: {a_name} {:?}, {b_name} {:?}",
            a[i], b[i]
        )),
    }
}

/// Every verdict on a fault-free network passes.
pub fn all_pass(what: &str, verdicts: &[VerifyOutcome]) -> Result<(), String> {
    match verdicts.iter().position(|v| !v.is_pass()) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: verdict {i} is {:?}", verdicts[i])),
    }
}

/// Per-report verdicts of `table` on `reports`.
pub fn verdicts<B: HeaderSetBackend>(
    table: &PathTable<B>,
    hs: &B,
    reports: &[TagReport],
) -> Vec<VerifyOutcome> {
    reports.iter().map(|r| table.verify(r, hs)).collect()
}

/// Denotational fingerprint of a table: per pair, the sorted multiset of
/// `(hops, tag bits, header count)`. Set handles are instance-local, so
/// header sets compare by model count.
pub type Fingerprint = Vec<(PortRef, PortRef, Vec<Hop>, u64, u128)>;

/// The fingerprint of `table`.
pub fn fingerprint<B: HeaderSetBackend>(table: &PathTable<B>, hs: &B) -> Fingerprint {
    let mut v: Fingerprint = table
        .all_entries()
        .into_iter()
        .map(|((i, o), e)| {
            (
                *i,
                *o,
                e.hops.clone(),
                e.tag.bits(),
                hs.sat_count(e.headers),
            )
        })
        .collect();
    v.sort();
    v
}

/// An incrementally maintained table must equal a from-scratch build of
/// the same rules.
pub fn same_table(
    what: &str,
    incremental: &Fingerprint,
    rebuilt: &Fingerprint,
) -> Result<(), String> {
    if incremental == rebuilt {
        return Ok(());
    }
    let first = incremental
        .iter()
        .zip(rebuilt)
        .position(|(a, b)| a != b)
        .unwrap_or(incremental.len().min(rebuilt.len()));
    Err(format!(
        "{what}: table differs from a from-scratch build ({} vs {} entries, first difference at {first})",
        incremental.len(),
        rebuilt.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridp_packet::PortNo;

    fn key(sw: u32, dst: u32) -> ObsKey {
        obs_key(
            PortRef {
                switch: SwitchId(sw),
                port: PortNo(1),
            },
            &FiveTuple::tcp(1, dst, 40000, 80),
        )
    }

    #[test]
    fn hostile_alarms_rejects_a_failing_undeviated_packet() {
        let deviated: HashSet<ObsKey> = [key(1, 7)].into();
        let leaked: HashSet<ObsKey> = [key(2, 9)].into();
        let sent = deviated.clone();
        assert!(hostile_alarms(&[key(1, 7), key(2, 9)], &deviated, &leaked, &sent).is_ok());
        // An alarm on a packet the replay shows undeviated.
        assert!(hostile_alarms(&[key(1, 7), key(3, 3)], &deviated, &leaked, &sent).is_err());
        // A deviated packet that was sent but never failed.
        assert!(hostile_alarms(&[key(2, 9)], &deviated, &leaked, &sent).is_err());
    }

    #[test]
    fn obs_key_ignores_the_relabelled_port() {
        let p = PortRef {
            switch: SwitchId(1),
            port: PortNo(2),
        };
        let a = FiveTuple::tcp(1, 2, 3, 4);
        let b = FiveTuple::tcp(1, 2, 3, 5);
        assert_eq!(obs_key(p, &a), obs_key(p, &b));
    }

    #[test]
    fn confirmed_must_be_the_injected_switch_and_named_ones() {
        let none = HashSet::new();
        assert!(confirmed_is(&[SwitchId(4)], SwitchId(4), &none).is_ok());
        assert!(confirmed_is(&[], SwitchId(4), &none).is_err());
        assert!(confirmed_is(&[SwitchId(4), SwitchId(5)], SwitchId(4), &none).is_err());
        assert!(confirmed_is(&[SwitchId(5)], SwitchId(4), &none).is_err());
        let named: HashSet<SwitchId> = [SwitchId(5)].into();
        assert!(confirmed_is(&[SwitchId(4), SwitchId(5)], SwitchId(4), &named).is_ok());
        assert!(confirmed_is(&[SwitchId(5)], SwitchId(4), &named).is_err());
        assert!(confirmed_is(&[SwitchId(4), SwitchId(6)], SwitchId(4), &named).is_err());
    }

    #[test]
    fn conservation_rejects_a_lost_report() {
        let ok = NetStatsSnapshot {
            reports: 10,
            enqueued: 10,
            verified: 10,
            ..NetStatsSnapshot::default()
        };
        assert!(conserved(&ok).is_ok());
        let lost = NetStatsSnapshot {
            verified: 9,
            ..ok.clone()
        };
        assert!(conserved(&lost).is_err());
        let shed = NetStatsSnapshot {
            enqueued: 9,
            verified: 9,
            shed: 1,
            ..ok
        };
        assert!(conserved(&shed).is_err());
    }

    #[test]
    fn verdict_sheets_must_match() {
        use VerifyOutcome::*;
        assert!(verdicts_agree("a", &[Pass, TagMismatch], "b", &[Pass, TagMismatch]).is_ok());
        assert!(verdicts_agree("a", &[Pass, TagMismatch], "b", &[Pass, Pass]).is_err());
        assert!(verdicts_agree("a", &[Pass], "b", &[Pass, Pass]).is_err());
        assert!(all_pass("x", &[Pass, Pass]).is_ok());
        assert!(all_pass("x", &[Pass, NoMatchingPath]).is_err());
        assert!(count_is("n", 3, 3).is_ok());
        assert!(count_is("n", 3, 2).is_err());
    }

    #[test]
    fn a_wrong_table_differs_from_its_rebuild() {
        use std::collections::HashMap;
        use veridp_controller::{Controller, Intent};
        use veridp_core::HeaderSpace;
        use veridp_switch::{Action, OfMessage};

        let topo = veridp_topo::gen::fat_tree(2);
        let mut ctrl = Controller::new(topo.clone());
        ctrl.install_intent(&Intent::Connectivity)
            .expect("intent compiles");
        let rules: HashMap<_, _> = ctrl
            .logical_rules()
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        let mut hs = HeaderSpace::new();
        let built = PathTable::build(&topo, &rules, &mut hs, 16);
        let fp = fingerprint(&built, &hs);
        let mut server =
            veridp_core::VeriDpServer::with_backend(HeaderSpace::new(), &topo, &rules, 16);
        assert!(same_table(
            "t",
            &fingerprint(server.table(), server.header_space()),
            &fp
        )
        .is_ok());
        // Drop one forwarding rule: the maintained table no longer matches.
        let (&sw, sw_rules) = rules.iter().find(|(_, r)| !r.is_empty()).expect("rules");
        let rule = sw_rules
            .iter()
            .find(|r| matches!(r.action, Action::Forward(_)))
            .expect("a forwarding rule");
        server.intercept(sw, &OfMessage::FlowDelete(rule.id));
        assert!(same_table(
            "t",
            &fingerprint(server.table(), server.header_space()),
            &fp
        )
        .is_err());
    }
}
