//! The exchange layer: how records leave a producer partition and arrive at
//! a consumer partition.
//!
//! Both engines run on this one mechanism.  The batch executor's hash
//! repartitioning ([`crate::exec`]) and the workset driver's superstep queue
//! switch (`spinning_core::workset`) each fill one [`Outbox`] per producer
//! partition and hand them to [`ship`]; what differs between them — which
//! router picks the target, how often the channel is reused, what happens to
//! the delivered [`ExchangedPartition`]s — stays with the caller.  The
//! asynchronous workset mode, which has no round to ship in, hands each
//! sealed outbox straight to its consumers ([`Outbox::deliver`]): the same
//! writers, the same budget and credits, the same pages and runs.  This is
//! the paper's Figures 5–6: the loop body `Δ` is an ordinary dataflow on the
//! ordinary runtime exchange, and only feedback and the constant-path cache
//! are special.
//!
//! # Invariants
//!
//! The shared code keeps the properties both call sites depend on:
//!
//! * **Every record travels serialized.**  A record routed off a page
//!   ([`Outbox::forward`] — the executor's repartitioning edges read their
//!   producer's pages) has its bytes copied; a record born at an emit call
//!   ([`Outbox::emit`] — the workset superstep's candidates) is born
//!   serialized.  Either way it lands in the peer's budgeted
//!   [`SpillingWriter`], or, for the source's own partition, in a plain
//!   local page writer.  The local writer is outside the budget and the
//!   credits — data that never leaves the partition is not exchange data —
//!   so a budgeted run spills only what crosses partitions.
//! * **The channel and its rounds belong to the caller.**  [`ship`] sends,
//!   finishes and receives exactly one `round` of the channel it is given.
//!   The executor opens a fresh channel per exchange and ships round 0; the
//!   workset driver keeps *one* channel for the whole run and passes
//!   monotonically increasing round numbers, so a near-empty superstep costs
//!   no channel setup and a failed attempt can never pollute its retry.
//! * **Buffers recycle.**  [`Outbox::seed`] takes over the page buffers
//!   ([`PagePool`]) the previous round drained and feeds them to whichever
//!   writer is about to need one, so a steady-state superstep writes into
//!   memory it emptied one round earlier and allocates no pages.
//! * **A declared combine folds before serializing, where nothing spills.**
//!   A producer that declares a [`CombineFunction`] hands its outbox one
//!   [`Combiner`] per target ([`Outbox::combine_with`]): every record
//!   emitted from then on is folded into the held record of its key and
//!   target, and only what is held at [`Outbox::seal`] is serialized onto
//!   the target's pages, in the order the keys were first seen — the fold
//!   sits between the router and the page writer, so a key reaches each
//!   target at most once per source.  The outbox takes the combiners only
//!   when its writers cannot spill ([`SpillManager::may_spill`]: no byte
//!   budget, no page credits).  A budget meters bytes and credits meter
//!   pages, but a fold table is bounded by keys, so a budgeted or
//!   credit-limited exchange ships every record as emitted.  A forwarded
//!   record ([`Outbox::forward`]) is never folded.  The counters keep their
//!   meaning: `sent_records` counts records emitted, before the fold;
//!   `shipped_records` and `shipped_bytes` count what was serialized for a
//!   peer, after it.
//! * **Sort-on-flush is the spill manager's decision.**  Writers come from
//!   the caller's [`SpillManager`]: batch-incremental supersteps and executor
//!   exchanges flush runs sorted on the exchange key, microsteps flush
//!   unsorted.
//! * **Delivery order is source-major.**  A consumer partition sees what
//!   never left it (its own local pages), then
//!   the pages of every peer in source order, then the spilled runs of every
//!   source in source order — the order the single-process oracle produces,
//!   on which byte-identity of solutions and per-superstep traces rests.
//! * **Disk is node-local.**  Spilled-run handles move directly to targets
//!   this process owns; runs bound for a remote process are read back and
//!   shipped as pages.  Source partitions owned by other processes are
//!   neither shipped nor finished here — their owners do that — and a
//!   producer narrower than the consumer still closes the round for the
//!   sources it does not have.

use crate::contracts::{CombineFunction, LastEmitted};
use crate::error::Result;
use crate::key::{FxHashMap, Key, KeyFields};
use crate::page::{ExchangedPartition, PageHandle, PagePool, PageWriter, RecordPage, RecordView};
use crate::spill::{SpillManager, SpillOutput, SpilledRun, SpillingWriter};
use crate::transport::PageChannel;
use crate::value::Value;
use comm::ClusterSpec;
use std::sync::Arc;

/// What one producer partition routed during one exchange round: the pages
/// that stay in the partition and one budgeted page writer per target.
#[derive(Debug)]
pub struct Outbox {
    source: usize,
    /// Records that stay in the source partition; unbudgeted.
    local_pages: PageWriter,
    /// One writer per target partition, indexed by target (the source's own
    /// slot stays empty); drained into `sealed` by [`Outbox::seal`].
    writers: Vec<SpillingWriter>,
    sealed: Vec<SpillOutput>,
    /// Recycled page buffers no writer has claimed yet.
    spare: Vec<Vec<u8>>,
    /// One fold table per target while the outbox combines, else empty.
    combiners: Vec<Combiner>,
    /// Whether a writer may flush to disk, which rules folding out.
    may_spill: bool,
    sent_records: usize,
    shipped_records: usize,
    shipped_bytes: usize,
}

impl Outbox {
    /// An empty outbox of producer partition `source` routing to `targets`
    /// consumer partitions under `spill`'s budget, credits and flush order.
    pub fn new(source: usize, targets: usize, spill: &SpillManager) -> Outbox {
        Outbox {
            source,
            local_pages: PageWriter::new(),
            writers: (0..targets).map(|_| spill.writer()).collect(),
            sealed: Vec::new(),
            spare: Vec::new(),
            combiners: Vec::new(),
            may_spill: spill.may_spill(),
            sent_records: 0,
            shipped_records: 0,
            shipped_bytes: 0,
        }
    }

    /// Takes over the page buffers the previous round drained into `pool`.
    /// [`Outbox::emit`] hands them out one page ahead of each writer's
    /// need; what no writer claims is dropped with the outbox, so the
    /// buffers in circulation shrink with the data.
    pub fn seed(&mut self, pool: &mut PagePool) {
        self.spare.extend(pool.take(usize::MAX));
    }

    /// Folds every record [`Outbox::emit`]ted from now on through
    /// `combiners`, one per target, unless a writer of this exchange may
    /// spill (see the module invariants): then the combiners stay with the
    /// caller and records ship as emitted.  Taken combiners come back
    /// through [`Outbox::take_combiners`] once the outbox is sealed, so
    /// their tables and buffers serve the next round.
    pub fn combine_with(&mut self, combiners: &mut Vec<Combiner>) {
        if !self.may_spill {
            debug_assert_eq!(
                combiners.len(),
                self.writers.len(),
                "one combiner per target"
            );
            std::mem::swap(&mut self.combiners, combiners);
        }
    }

    /// The combiners [`Outbox::combine_with`] took, drained by
    /// [`Outbox::seal`]; empty when it took none.
    pub fn take_combiners(&mut self) -> Vec<Combiner> {
        std::mem::take(&mut self.combiners)
    }

    /// Routes one serialized record to `target`, copying its bytes where it
    /// lands: the record is never deserialized.
    #[inline]
    pub fn forward(&mut self, target: usize, record: RecordView<'_>) {
        self.sent_records += 1;
        if target == self.source {
            self.local_pages.refill_spare_from(&mut self.spare);
            self.local_pages.push_serialized(record.payload());
        } else {
            let writer = &mut self.writers[target];
            writer.refill_spare_from(&mut self.spare);
            writer.push_serialized(record.payload());
        }
    }

    /// Routes one record given as its field slice to `target`, serialising
    /// it where it lands: the record never exists as a heap object.
    #[inline]
    pub fn emit(&mut self, target: usize, fields: &[Value]) {
        self.sent_records += 1;
        if let Some(combiner) = self.combiners.get_mut(target) {
            combiner.insert(fields);
        } else if target == self.source {
            self.local_pages.refill_spare_from(&mut self.spare);
            self.local_pages.push_fields(fields);
        } else {
            let writer = &mut self.writers[target];
            writer.refill_spare_from(&mut self.spare);
            writer.push_fields(fields);
        }
    }

    /// Seals every writer, applying the budget one last time.  Producers
    /// call this at the end of their own task so the final flushes of
    /// different partitions overlap; [`ship`] seals whatever was left open.
    /// Surfaces the first I/O error a mid-stream flush held back.
    pub fn seal(&mut self) -> std::io::Result<()> {
        let (local, writers, spare) = (&mut self.local_pages, &mut self.writers, &mut self.spare);
        // A second seal finds the combiners drained and the writers gone.
        let folded = self.combiners.iter_mut().enumerate();
        for (target, combiner) in folded.filter(|(_, combiner)| !combiner.is_empty()) {
            if target == self.source {
                combiner.drain(|payload| {
                    local.refill_spare_from(spare);
                    local.push_serialized(payload);
                });
            } else {
                let writer = &mut writers[target];
                combiner.drain(|payload| {
                    writer.refill_spare_from(spare);
                    writer.push_serialized(payload);
                });
            }
        }
        self.local_pages.seal();
        self.sealed.reserve_exact(self.writers.len());
        for writer in self.writers.drain(..) {
            self.shipped_records += writer.total_records();
            self.shipped_bytes += writer.total_bytes();
            self.sealed.push(writer.finish()?);
        }
        Ok(())
    }

    /// Seals the outbox and hands every target what it addressed there,
    /// with no channel and no round: `post(target, pages, runs)` gets the
    /// pages the source kept for itself first, then each peer's sealed
    /// pages and spilled runs in target order; a target that was addressed
    /// nothing is skipped.  This is the exchange of a run without a barrier
    /// — the asynchronous workset mode, whose consumers take what arrives
    /// whenever it arrives.  Returns the outbox's counters, as [`ship`]
    /// counts them.
    pub fn deliver(
        mut self,
        mut post: impl FnMut(usize, Vec<Arc<RecordPage>>, Vec<SpilledRun>),
    ) -> std::io::Result<ShipStats> {
        self.seal()?;
        let mut stats = ShipStats::default();
        stats.count_routed(&self);
        let local = self.local_pages.finish();
        if !local.is_empty() {
            post(self.source, local, Vec::new());
        }
        for (target, output) in self.sealed.into_iter().enumerate() {
            stats.count_writer(&output);
            stats.shipped_pages += output.pages.len();
            if !output.pages.is_empty() || !output.runs.is_empty() {
                post(target, output.pages, output.runs);
            }
        }
        Ok(stats)
    }
}

/// Folds records that share a key into one held record per key before any
/// of them is serialized for the exchange, with a declared
/// [`CombineFunction`]: an Fx hash table from the key to the held record's
/// handle in a page store.  The held records drain in the order their keys
/// were first seen.  Draining empties the table but keeps its capacity, and
/// keeps the page buffers the store filled as the store's spares — as many
/// as the round just drained needed, so they follow the data down — so a
/// combiner reused round after round allocates neither table nor pages once
/// warm, and takes no buffer from the pages its outbox writes.
pub struct Combiner {
    combine: Arc<dyn CombineFunction>,
    key_fields: KeyFields,
    /// Key → index of its held record in `held`.
    table: FxHashMap<Key, u32>,
    /// The held record of every key, in first-seen order.
    held: Vec<PageHandle>,
    /// The held records' bytes; a fold appends the folded record, and the
    /// record it replaces stays dead on its page until the drain.
    store: PageWriter,
    /// The key of the record being inserted.
    key: Key,
    /// What the combine function emitted.
    folded: LastEmitted,
}

impl std::fmt::Debug for Combiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combiner")
            .field("key_fields", &self.key_fields)
            .field("held", &self.held.len())
            .finish()
    }
}

/// The capacity below which a fold table is never shrunk.
const MIN_FOLD_TABLE: usize = 256;

impl Combiner {
    /// An empty combiner folding with `combine` records keyed on
    /// `key_fields`.
    pub fn new(combine: Arc<dyn CombineFunction>, key_fields: KeyFields) -> Combiner {
        Combiner {
            combine,
            key_fields,
            table: FxHashMap::default(),
            held: Vec::new(),
            store: PageWriter::new(),
            key: Key::Long(0),
            folded: LastEmitted::default(),
        }
    }

    /// Holds `fields` as its key's record, or folds it into the one held:
    /// what the combine function emits replaces the held record.
    #[inline]
    pub fn insert(&mut self, fields: &[Value]) {
        self.key.assign_fields(fields, &self.key_fields);
        let Some(&slot) = self.table.get(&self.key) else {
            self.table.insert(self.key.clone(), self.held.len() as u32);
            self.held.push(self.store.push_fields(fields));
            return;
        };
        let held = &mut self.held[slot as usize];
        self.folded.0.clear();
        self.combine
            .combine(self.store.view(*held), fields, &mut self.folded);
        if !self.folded.0.is_empty() {
            *held = self.store.push_fields(&self.folded.0);
        }
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Hands `push` every held record's serialized bytes in first-seen key
    /// order, then empties the combiner.
    pub fn drain(&mut self, mut push: impl FnMut(&[u8])) {
        for &handle in &self.held {
            push(self.store.view(handle).payload());
        }
        // Probing and clearing cost grow with the table's capacity, not its
        // keys: a table sized for a large round would slow every small round
        // after it, so it follows the data down once it is four times too
        // large.
        let keys = self.held.len().max(MIN_FOLD_TABLE);
        self.table.clear();
        if self.table.capacity() > 4 * keys {
            self.table.shrink_to(keys);
        }
        self.held.clear();
        let pages = std::mem::take(&mut self.store).finish();
        let buffers = pages.into_iter().filter_map(RecordPage::into_buffer);
        self.store.add_spare_buffers(buffers);
    }
}

/// Counters of one shipped round, summed over its outboxes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipStats {
    /// Records routed, local and shipped.
    pub sent_records: usize,
    /// Records serialised for a peer partition.
    pub shipped_records: usize,
    /// Exact serialised bytes of the shipped records.
    pub shipped_bytes: usize,
    /// In-memory pages handed to targets this process owns.
    pub shipped_pages: usize,
    /// Bytes the writers moved to disk.
    pub spilled_bytes: usize,
    /// Runs the writers created.
    pub spilled_runs: usize,
    /// Most sealed pages any one writer held in memory at once.
    pub pages_high_water: usize,
}

impl ShipStats {
    /// Adds `other`'s counters: every counter sums, except the high-water
    /// mark, which is a maximum.
    pub fn merge(&mut self, other: &ShipStats) {
        self.sent_records += other.sent_records;
        self.shipped_records += other.shipped_records;
        self.shipped_bytes += other.shipped_bytes;
        self.shipped_pages += other.shipped_pages;
        self.spilled_bytes += other.spilled_bytes;
        self.spilled_runs += other.spilled_runs;
        self.pages_high_water = self.pages_high_water.max(other.pages_high_water);
    }

    /// Adds what a sealed outbox routed.
    fn count_routed(&mut self, outbox: &Outbox) {
        self.sent_records += outbox.sent_records;
        self.shipped_records += outbox.shipped_records;
        self.shipped_bytes += outbox.shipped_bytes;
    }

    /// Adds what one of its writers spilled and held.
    fn count_writer(&mut self, output: &SpillOutput) {
        self.spilled_bytes += output.stats.spilled_bytes;
        self.spilled_runs += output.stats.spilled_runs;
        self.pages_high_water = self.pages_high_water.max(output.pages_high_water);
    }
}

/// Ships one round: what every outbox kept local moves to its own consumer
/// partition ahead of everything else, its peer pages
/// travel through `channel`, its spilled runs move by handle (or, for a
/// remote target, as pages), and every consumer partition this process owns
/// gathers what all sources addressed to it.  `outboxes`
/// arrive in source order, one per producer partition starting at 0; the
/// result holds `targets` partitions, of which only the owned ones receive.
pub fn ship(
    outboxes: impl IntoIterator<Item = Outbox>,
    targets: usize,
    channel: &dyn PageChannel<RecordPage>,
    cluster: &ClusterSpec,
    round: u64,
) -> Result<(Vec<ExchangedPartition>, ShipStats)> {
    let mut inboxes: Vec<ExchangedPartition> = Vec::new();
    inboxes.resize_with(targets, ExchangedPartition::default);
    let mut stats = ShipStats::default();
    let mut sources = 0;
    for mut outbox in outboxes {
        debug_assert_eq!(outbox.source, sources, "outboxes arrive in source order");
        sources += 1;
        outbox.seal()?;
        let source = outbox.source;
        stats.count_routed(&outbox);
        inboxes[source].receive_pages(outbox.local_pages.finish());
        if !cluster.owns(source, targets) {
            continue;
        }
        for (target, output) in outbox.sealed.into_iter().enumerate() {
            stats.count_writer(&output);
            let mut pages = output.pages;
            if cluster.owns(target, targets) {
                stats.shipped_pages += pages.len();
                inboxes[target].receive_runs(output.runs);
            } else {
                for run in &output.runs {
                    pages.extend(run.read_pages()?);
                }
            }
            channel.send(round, source, target, pages)?;
        }
        channel.finish_round(round, source)?;
    }
    for source in sources..targets {
        if cluster.owns(source, targets) {
            channel.finish_round(round, source)?;
        }
    }
    for target in cluster.owned_range(targets) {
        for (_, pages) in channel.recv(round, target)? {
            inboxes[target].receive_pages(pages);
        }
    }
    Ok((inboxes, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::RecordSink;
    use crate::fault::FaultInjector;
    use crate::range::PartitionRouter;
    use crate::record::Record;
    use crate::spill::MemoryBudget;
    use crate::transport::TransportHandle;
    use std::path::PathBuf;
    use std::sync::Arc;

    const PARTITIONS: usize = 4;

    /// The producer side: 3000 skewed keyed records, round-robin over the
    /// source partitions.
    fn producer() -> Vec<Vec<Record>> {
        let mut parts = vec![Vec::new(); PARTITIONS];
        for i in 0..3000i64 {
            parts[i as usize % PARTITIONS].push(Record::pair((i * 7919) % 997 - 300, i));
        }
        parts
    }

    fn hash_router() -> PartitionRouter {
        PartitionRouter::hash(PARTITIONS)
    }

    /// What a naive per-record exchange delivers, in the exchange's delivery
    /// order: per target, the records that never left it, then the other
    /// sources' records in source order.
    fn reference(router: &PartitionRouter) -> Vec<Vec<Record>> {
        let mut stayed = vec![Vec::new(); PARTITIONS];
        let mut arrived = vec![Vec::new(); PARTITIONS];
        for (source, part) in producer().into_iter().enumerate() {
            for record in part {
                let target = router.route(&record, &[0]);
                if target == source {
                    stayed[target].push(record);
                } else {
                    arrived[target].push(record);
                }
            }
        }
        stayed
            .into_iter()
            .zip(arrived)
            .map(|(mut stayed, arrived)| {
                stayed.extend(arrived);
                stayed
            })
            .collect()
    }

    fn spill_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "spinning-exchange-test-{}-{name}",
            std::process::id()
        ))
    }

    /// The three memory regimes of the matrix; tiny pages so every one of
    /// them seals (and, where configured, spills) many times.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Regime {
        Unlimited,
        BudgetZero,
        TwoCredits,
    }

    fn spill_manager(regime: Regime, dir: PathBuf) -> SpillManager {
        let budget = match regime {
            Regime::BudgetZero => MemoryBudget::bytes(0),
            _ => MemoryBudget::unlimited(),
        };
        SpillManager::in_dir(dir, budget, None)
            .with_page_bytes(256)
            .with_page_credits((regime == Regime::TwoCredits).then_some(2))
    }

    /// Routes the producer partitions `owned` by this process into outboxes
    /// (partitions of other processes stay empty, as in an SPMD superstep)
    /// and ships them as `round` of `channel`.  `by_reference` emits every
    /// record as its field slice instead of forwarding it off a page.
    fn exchange_once(
        router: &PartitionRouter,
        spill: &SpillManager,
        transport: &TransportHandle,
        round: u64,
        by_reference: bool,
    ) -> (Vec<ExchangedPartition>, ShipStats) {
        let cluster = transport.cluster();
        let channel = transport.fresh_channel(PARTITIONS);
        let outboxes = producer().into_iter().enumerate().map(|(source, records)| {
            let mut outbox = Outbox::new(source, PARTITIONS, spill);
            if cluster.owns(source, PARTITIONS) {
                let pages = paged(&records);
                let views = pages.iter().flat_map(|page| page.reader());
                for (record, view) in records.iter().zip(views) {
                    let target = router.route(record, &[0]);
                    if by_reference {
                        outbox.emit(target, record.fields());
                    } else {
                        outbox.forward(target, view);
                    }
                }
            }
            outbox
        });
        ship(outboxes, PARTITIONS, &*channel, &cluster, round).expect("exchange")
    }

    /// `records` on pages, in order.
    fn paged(records: &[Record]) -> Vec<Arc<RecordPage>> {
        let mut writer = PageWriter::new();
        for record in records {
            writer.push(record);
        }
        writer.finish()
    }

    /// The delivered records of every partition, in delivery order.
    fn delivered(parts: &[ExchangedPartition]) -> Vec<Vec<Record>> {
        parts
            .iter()
            .map(|part| {
                let mut records = Vec::new();
                part.for_each_view(|record| records.push(record.materialize()))
                    .expect("readable");
                records
            })
            .collect()
    }

    fn sorted(mut parts: Vec<Vec<Record>>) -> Vec<Vec<Record>> {
        parts.iter_mut().for_each(|part| part.sort());
        parts
    }

    fn assert_no_spill_files(dir: &PathBuf) {
        let leaked: Vec<_> = std::fs::read_dir(dir)
            .map(|entries| entries.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        assert!(leaked.is_empty(), "spill files leaked: {leaked:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Binds an ephemeral port and frees it: a coordinator address parallel
    /// tests cannot collide on.
    fn free_coordinator_addr() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);
        addr
    }

    /// Runs the exchange as a 2-process TCP cluster (two endpoints in
    /// threads, real sockets) and returns each target partition as its owner
    /// received it, plus the per-process stats.
    fn exchange_over_tcp(
        router: &PartitionRouter,
        regime: Regime,
        name: &str,
        by_reference: bool,
    ) -> (Vec<ExchangedPartition>, Vec<ShipStats>, Vec<PathBuf>) {
        let coordinator = free_coordinator_addr();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|index| {
                    let coordinator = coordinator.clone();
                    scope.spawn(move || {
                        let spec = ClusterSpec::new(2, index).expect("spec");
                        let transport = TransportHandle::tcp_cluster(
                            spec,
                            &coordinator,
                            &FaultInjector::disabled(),
                        )
                        .expect("cluster connects");
                        let dir = spill_dir(&format!("{name}-tcp{index}"));
                        let spill = spill_manager(regime, dir.clone());
                        let (parts, stats) =
                            exchange_once(router, &spill, &transport, 1, by_reference);
                        (spec, parts, stats, dir)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("worker thread"))
                .collect()
        });
        let (mut owned, mut stats, mut dirs) = (Vec::new(), Vec::new(), Vec::new());
        for (spec, parts, process_stats, dir) in results {
            for (target, part) in parts.into_iter().enumerate() {
                if spec.owns(target, PARTITIONS) {
                    owned.push(part);
                } else {
                    assert!(part.is_empty(), "partition {target} belongs to the peer");
                }
            }
            stats.push(process_stats);
            dirs.push(dir);
        }
        (owned, stats, dirs)
    }

    #[test]
    fn every_router_regime_and_transport_delivers_the_same_records() {
        let router = hash_router();
        let expected = reference(&router);
        let total: usize = expected.iter().map(Vec::len).sum();
        let regimes = [Regime::Unlimited, Regime::BudgetZero, Regime::TwoCredits];
        for (regime, by_reference) in regimes.into_iter().flat_map(|r| [(r, false), (r, true)]) {
            let name = format!("{regime:?}-{by_reference}");
            let dir = spill_dir(&name);
            let spill = spill_manager(regime, dir.clone());
            let (local_parts, local_stats) =
                exchange_once(&router, &spill, &TransportHandle::local(), 0, by_reference);
            let local = delivered(&local_parts);
            assert_eq!(sorted(local.clone()), sorted(expected.clone()), "{name}");
            assert_eq!(local_stats.sent_records, total, "{name}");
            match regime {
                Regime::Unlimited => {
                    // Nothing spills: local pages, then peers' by source.
                    assert_eq!(local, expected, "{name}");
                    assert_eq!(local_stats.spilled_runs, 0, "{name}");
                    assert!(local_stats.shipped_pages > 0, "{name}");
                }
                Regime::BudgetZero => {
                    // Everything shipped spills; runs arrive by source
                    // too, so the order is still the reference order.
                    assert_eq!(local, expected, "{name}");
                    assert_eq!(local_stats.shipped_pages, 0, "{name}");
                    assert!(local_stats.spilled_runs > 0, "{name}");
                }
                Regime::TwoCredits => {
                    assert!(local_stats.spilled_runs > 0, "{name}");
                    assert!(local_stats.pages_high_water <= 2, "{name}");
                }
            }

            let (tcp_parts, tcp_stats, tcp_dirs) =
                exchange_over_tcp(&router, regime, &name, by_reference);
            let tcp = delivered(&tcp_parts);
            assert_eq!(sorted(tcp.clone()), sorted(expected.clone()), "{name}");
            if regime == Regime::Unlimited {
                assert_eq!(tcp, local, "{name}: the wire must not reorder");
            }
            // The cluster's counters add up to the single-process ones.
            let sum = |f: fn(&ShipStats) -> usize| tcp_stats.iter().map(f).sum::<usize>();
            assert_eq!(sum(|s| s.sent_records), local_stats.sent_records, "{name}");
            assert_eq!(
                sum(|s| s.shipped_records),
                local_stats.shipped_records,
                "{name}"
            );
            assert_eq!(
                sum(|s| s.shipped_bytes),
                local_stats.shipped_bytes,
                "{name}"
            );
            assert_eq!(sum(|s| s.spilled_runs), local_stats.spilled_runs, "{name}");

            drop((local_parts, tcp_parts));
            for dir in tcp_dirs.iter().chain([&dir]) {
                assert_no_spill_files(dir);
            }
        }
    }

    #[test]
    fn a_delivered_outbox_posts_what_a_shipped_one_delivers() {
        let router = hash_router();
        let expected = sorted(reference(&router));
        for regime in [Regime::Unlimited, Regime::BudgetZero, Regime::TwoCredits] {
            let name = format!("deliver-{regime:?}");
            let dir = spill_dir(&name);
            let spill = spill_manager(regime, dir.clone());
            let (_, shipped) = exchange_once(&router, &spill, &TransportHandle::local(), 0, true);
            let mut parts = vec![ExchangedPartition::default(); PARTITIONS];
            let mut stats = ShipStats::default();
            for (source, records) in producer().into_iter().enumerate() {
                let mut outbox = Outbox::new(source, PARTITIONS, &spill);
                for record in &records {
                    outbox.emit(router.route(record, &[0]), record.fields());
                }
                let posted = outbox.deliver(|target, pages, runs| {
                    assert!(!pages.is_empty() || !runs.is_empty(), "{name}");
                    parts[target].receive_pages(pages);
                    parts[target].receive_runs(runs);
                });
                stats.merge(&posted.expect("sealed"));
            }
            assert_eq!(sorted(delivered(&parts)), expected, "{name}");
            assert_eq!(stats, shipped, "{name}");
            drop(parts);
            assert_no_spill_files(&dir);
        }
    }

    #[test]
    fn a_remote_targets_spilled_runs_arrive_as_pages() {
        let router = hash_router();
        let (parts, _, dirs) = exchange_over_tcp(&router, Regime::BudgetZero, "remote-runs", false);
        // Budget 0 spills every shipped page.  Disk is node-local, so each
        // partition holds run handles only from its own process's sources,
        // and in pages its own local records and the peer's runs
        // rematerialised.
        for (target, part) in parts.iter().enumerate() {
            assert!(part.page_count() > 0, "partition {target} got no pages");
            assert!(
                part.spilled_run_count() > 0,
                "partition {target} got no runs"
            );
            let paged: usize = part.pages().iter().map(|p| p.record_count()).sum();
            let expected_paged = producer()
                .iter()
                .enumerate()
                .filter(|&(source, _)| source / 2 != target / 2 || source == target)
                .flat_map(|(_, records)| records)
                .filter(|record| router.route(record, &[0]) == target)
                .count();
            assert_eq!(paged, expected_paged, "partition {target}");
        }
        drop(parts);
        dirs.iter().for_each(assert_no_spill_files);
    }

    #[test]
    fn a_producer_narrower_than_the_consumer_still_closes_the_round() {
        // Two producer partitions, four consumer partitions: without the
        // end-of-round of the two missing sources the receivers would wait
        // for the channel timeout instead of returning.
        let router = hash_router();
        let spill = SpillManager::in_dir(spill_dir("narrow"), MemoryBudget::unlimited(), None);
        let transport = TransportHandle::local();
        let channel = transport.fresh_channel(PARTITIONS);
        let narrow: Vec<Vec<Record>> = producer().into_iter().take(2).collect();
        let outboxes = narrow.iter().enumerate().map(|(source, records)| {
            let mut outbox = Outbox::new(source, PARTITIONS, &spill);
            for record in records {
                outbox.emit(router.route(record, &[0]), record.fields());
            }
            outbox
        });
        let (parts, stats) =
            ship(outboxes, PARTITIONS, &*channel, &transport.cluster(), 0).expect("exchange");
        assert_eq!(parts.len(), PARTITIONS);
        let sent: usize = narrow.iter().map(Vec::len).sum();
        assert_eq!(stats.sent_records, sent);
        assert_eq!(
            parts
                .iter()
                .map(ExchangedPartition::record_count)
                .sum::<usize>(),
            sent
        );
        for (target, records) in delivered(&parts).iter().enumerate() {
            assert!(records.iter().all(|r| router.route(r, &[0]) == target));
        }
    }

    #[test]
    fn seeded_buffers_are_written_into_and_records_keep_their_representation() {
        let spill = SpillManager::in_dir(spill_dir("seed"), MemoryBudget::unlimited(), None);
        let mut pool = PagePool::with_limit(8);
        // Two records a page: each buffer holds what one page of the round
        // below writes.
        let mut writer = crate::page::PageWriter::new();
        writer.push(&Record::pair(1, 1));
        writer.push(&Record::pair(1, 1));
        writer.seal();
        writer.push(&Record::pair(2, 2));
        writer.push(&Record::pair(2, 2));
        let buffers: Vec<*const u8> = writer
            .finish()
            .into_iter()
            .map(|page| {
                let ptr = page.bytes().as_ptr();
                assert!(pool.recycle(page));
                ptr
            })
            .collect();

        let mut outbox = Outbox::new(0, 2, &spill);
        outbox.seed(&mut pool);
        assert!(pool.is_empty(), "the outbox took over the pooled buffers");
        // A forwarded record is copied as bytes and an emitted record is
        // born on a page, wherever either goes.
        outbox.forward(0, paged(&[Record::pair(7, 7)])[0].view_at(0));
        outbox.emit(1, Record::pair(8, 8).fields());
        outbox.emit(0, Record::pair(9, 9).fields());
        let transport = TransportHandle::local();
        let channel = transport.fresh_channel(2);
        let (parts, stats) =
            ship([outbox], 2, &*channel, &transport.cluster(), 0).expect("exchange");
        assert_eq!(
            (
                stats.sent_records,
                stats.shipped_records,
                stats.shipped_pages
            ),
            (3, 1, 1)
        );
        assert_eq!(parts[0].page_count(), 1);
        assert_eq!(
            delivered(&parts)[0],
            vec![Record::pair(7, 7), Record::pair(9, 9)]
        );
        assert_eq!(parts[1].page_count(), 1);
        // Both written pages live in the recycled buffers.
        for part in &parts {
            assert!(buffers.contains(&part.pages()[0].bytes().as_ptr()));
        }
    }

    #[test]
    fn combiners_fold_per_target_where_nothing_spills_and_only_there() {
        let min = Arc::new(crate::contracts::CombineClosure(
            |held: RecordView<'_>, candidate: &[Value], out: &mut dyn RecordSink| {
                if candidate[1].as_long() < held.long(1) {
                    out.emit(candidate);
                }
            },
        ));
        let emitted = [(1, 9), (2, 5), (1, 4), (3, 7), (2, 6), (1, 8)];
        for (budget, folds) in [
            (MemoryBudget::unlimited(), true),
            (MemoryBudget::bytes(0), false),
        ] {
            let dir = spill_dir(&format!("fold-{folds}"));
            let spill = SpillManager::in_dir(dir.clone(), budget, None);
            let mut combiners: Vec<Combiner> = (0..2)
                .map(|_| Combiner::new(min.clone(), vec![0]))
                .collect();
            let mut outbox = Outbox::new(0, 2, &spill);
            outbox.combine_with(&mut combiners);
            assert_eq!(combiners.is_empty(), folds, "budget {budget:?}");
            for (key, value) in emitted {
                outbox.emit(key as usize % 2, Record::pair(key, value).fields());
            }
            outbox.seal().expect("seal");
            assert_eq!(outbox.take_combiners().len(), if folds { 2 } else { 0 });
            let transport = TransportHandle::local();
            let channel = transport.fresh_channel(2);
            let (parts, stats) =
                ship([outbox], 2, &*channel, &transport.cluster(), 0).expect("exchange");
            let pairs = |pairs: &[(i64, i64)]| -> Vec<Record> {
                pairs.iter().map(|&(k, v)| Record::pair(k, v)).collect()
            };
            // Folded: each key's minimum, keys in first-seen order per
            // target; budgeted: every record as emitted.
            let expected = match folds {
                true => vec![pairs(&[(2, 5)]), pairs(&[(1, 4), (3, 7)])],
                false => vec![
                    pairs(&[(2, 5), (2, 6)]),
                    pairs(&[(1, 9), (1, 4), (3, 7), (1, 8)]),
                ],
            };
            assert_eq!(delivered(&parts), expected, "budget {budget:?}");
            assert_eq!(stats.sent_records, emitted.len(), "counted before the fold");
            assert_eq!(stats.shipped_records, expected[1].len(), "counted after it");
            drop(parts);
            assert_no_spill_files(&dir);
        }
    }

    #[test]
    fn delivery_is_own_local_pages_then_peer_pages_by_source_then_runs() {
        // Three sources each emit tagged records to partition 1.  Source 0
        // flushes a run mid-stream (two credits, tiny pages); source 1's
        // records are local and must come first even though it is not the
        // first source and its local writer is outside the credit cap.
        let dir = spill_dir("order");
        let spill = SpillManager::in_dir(dir.clone(), MemoryBudget::unlimited(), None)
            .with_page_bytes(64)
            .with_page_credits(Some(2));
        let per_source = 12i64;
        let outboxes = (0..3usize).map(|source| {
            let mut outbox = Outbox::new(source, 3, &spill);
            // Only source 0 emits enough to exceed its credits.
            let count = if source == 2 { 2 } else { per_source };
            for i in 0..count {
                outbox.emit(1, Record::pair(source as i64, i).fields());
            }
            outbox
        });
        let transport = TransportHandle::local();
        let channel = transport.fresh_channel(3);
        let (parts, stats) =
            ship(outboxes, 3, &*channel, &transport.cluster(), 0).expect("exchange");
        assert!(stats.spilled_runs > 0, "source 0 must have flushed a run");
        assert!(stats.pages_high_water <= 2);
        let part = &parts[1];
        assert!(part.spilled_run_count() > 0);
        let sources: Vec<i64> = delivered(&parts)[1].iter().map(|r| r.long(0)).collect();
        let in_pages: usize = part.pages().iter().map(|p| p.record_count()).sum();
        // Pages: all of source 1 (local, never spilled although it sealed
        // more pages than the credits allow), then what peers kept in
        // memory, in source order.  Runs follow, again in source order.
        let (paged, spilled) = sources.split_at(in_pages);
        assert_eq!(&paged[..per_source as usize], vec![1; per_source as usize]);
        let peers = &paged[per_source as usize..];
        assert!(peers.windows(2).all(|w| w[0] <= w[1]), "{peers:?}");
        assert!(peers.contains(&2) && !peers.contains(&1), "{peers:?}");
        assert!(spilled.windows(2).all(|w| w[0] <= w[1]), "{spilled:?}");
        assert!(spilled.contains(&0) && !spilled.contains(&1), "{spilled:?}");
        assert_eq!(sources.len() as i64, 2 * per_source + 2);
        drop(parts);
        assert_no_spill_files(&dir);
    }
}
