"""Admission-control and store-gate unit tests: the queue → reject →
degrade → drain ladder, and pinned read visibility over mutations."""

import threading
import time

import pytest

from repro.errors import OverloadedError, ShuttingDownError
from repro.index.inverted import InvertedIndex
from repro.index.structure import StructureIndex
from repro.server.admission import AdmissionController, StoreGate
from repro.xmldb.stats import StoreStatistics
from repro.xmldb.store import XMLStore

DOC = "<root><a>alpha</a><a>beta</a></root>"


class TestAdmission:
    def test_admit_and_release_track_inflight(self):
        ac = AdmissionController(max_inflight=2, queue_timeout_s=0.05)
        t1 = ac.admit(generation=3)
        t2 = ac.admit()
        assert ac.inflight == 2
        assert t1.generation == 3 and not t1.degraded
        ac.release(t1)
        ac.release(t2)
        assert ac.inflight == 0
        assert ac.admitted == 2

    def test_queue_timeout_rejects_typed(self):
        ac = AdmissionController(max_inflight=1, queue_timeout_s=0.02)
        held = ac.admit()
        t0 = time.monotonic()
        with pytest.raises(OverloadedError, match="max_inflight=1"):
            ac.admit()
        assert time.monotonic() - t0 < 1.0  # bounded, not a hang
        assert ac.rejected_overload == 1
        ac.release(held)

    def test_queued_request_gets_freed_slot(self):
        ac = AdmissionController(max_inflight=1, queue_timeout_s=2.0)
        held = ac.admit()
        got = []

        def waiter():
            got.append(ac.admit())

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.05)
        assert not got  # still queued
        ac.release(held)
        th.join(2.0)
        assert len(got) == 1 and got[0].queued_ms > 0.0
        ac.release(got[0])

    def test_rejection_degrades_subsequent_admits(self):
        ac = AdmissionController(max_inflight=1, queue_timeout_s=0.01,
                                 pressure_window_s=5.0)
        held = ac.admit()
        with pytest.raises(OverloadedError):
            ac.admit()
        ac.release(held)
        ticket = ac.admit()
        assert ticket.degraded
        assert ac.degraded == 1
        ac.release(ticket)

    def test_pressure_window_expires(self):
        ac = AdmissionController(max_inflight=1, queue_timeout_s=0.01,
                                 pressure_window_s=0.05)
        held = ac.admit()
        with pytest.raises(OverloadedError):
            ac.admit()
        ac.release(held)
        assert ac.under_pressure()
        time.sleep(0.1)
        assert not ac.under_pressure()
        ticket = ac.admit()
        assert not ticket.degraded
        ac.release(ticket)

    def test_drain_rejects_and_waits_for_inflight(self):
        ac = AdmissionController(max_inflight=2, queue_timeout_s=0.05)
        held = ac.admit()
        assert ac.drain(timeout_s=0.02) is False  # still in flight
        with pytest.raises(ShuttingDownError):
            ac.admit()
        assert ac.rejected_shutdown == 1

        def releaser():
            time.sleep(0.05)
            ac.release(held)

        th = threading.Thread(target=releaser)
        th.start()
        assert ac.drain(timeout_s=2.0) is True
        th.join()

    def test_snapshot_shape(self):
        ac = AdmissionController(max_inflight=4)
        snap = ac.snapshot()
        assert snap["max_inflight"] == 4
        assert snap["inflight"] == 0
        assert snap["draining"] is False
        assert set(snap) >= {
            "admitted", "rejected_overload", "rejected_shutdown",
            "degraded", "under_pressure",
        }

    def test_max_inflight_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestStoreGate:
    def test_read_pins_generation(self):
        store = XMLStore()
        store.load("a.xml", DOC)
        gate = StoreGate(store)
        with gate.read() as generation:
            assert generation == store.generation

    def test_writer_excludes_readers(self):
        store = XMLStore()
        store.load("a.xml", DOC)
        gate = StoreGate(store)
        reader_in = threading.Event()
        release_reader = threading.Event()
        wrote = []

        def reader():
            with gate.read():
                reader_in.set()
                release_reader.wait(5.0)

        def writer():
            with gate.write() as st:
                wrote.append(st.load("b.xml", DOC).name)

        rt = threading.Thread(target=reader)
        wt = threading.Thread(target=writer)
        rt.start()
        assert reader_in.wait(5.0)
        wt.start()
        time.sleep(0.05)
        assert not wrote  # writer blocked behind the active reader
        release_reader.set()
        wt.join(5.0)
        rt.join(5.0)
        assert wrote == ["b.xml"]

    def test_waiting_writer_blocks_new_readers(self):
        store = XMLStore()
        store.load("a.xml", DOC)
        gate = StoreGate(store)
        reader_in = threading.Event()
        release_reader = threading.Event()
        late_reader_gen = []
        write_done = threading.Event()

        def first_reader():
            with gate.read():
                reader_in.set()
                release_reader.wait(5.0)

        def writer():
            with gate.write() as st:
                st.load("b.xml", DOC)
            write_done.set()

        def late_reader():
            with gate.read() as generation:
                late_reader_gen.append(generation)

        rt = threading.Thread(target=first_reader)
        rt.start()
        assert reader_in.wait(5.0)
        wt = threading.Thread(target=writer)
        wt.start()
        time.sleep(0.05)  # writer is now queued behind the reader
        lt = threading.Thread(target=late_reader)
        lt.start()
        time.sleep(0.05)
        # no writer starvation: the late reader queues behind the writer
        assert not late_reader_gen
        gen_before = store.generation
        release_reader.set()
        wt.join(5.0)
        lt.join(5.0)
        rt.join(5.0)
        assert write_done.is_set()
        # the late reader observed the post-write generation
        assert late_reader_gen == [gen_before + 1]

    def test_writer_rebuilds_lazily_cached_structures_eagerly(self):
        store = XMLStore()
        store.load("a.xml", DOC)
        gate = StoreGate(store)
        index = store.index  # build once
        with gate.write() as st:
            st.load("b.xml", DOC)
            # the mutation updated the built index in place; the never
            # built structure index and statistics stayed unbuilt
            assert st._inverted is index
            assert st._structure is None and st._stats is None
        # the gate built those before any reader re-entered, and every
        # structure equals a from-scratch build of the new corpus
        self.assert_fresh(store)
        with gate.write() as st:
            st.remove_document("a.xml")
        self.assert_fresh(store)

    @staticmethod
    def assert_fresh(store):
        fresh = InvertedIndex.build(store)
        assert store._inverted._table == fresh._table
        assert store._inverted._rows == fresh._rows
        assert store._structure == StructureIndex.build(store)
        assert store._stats == StoreStatistics.build(store)

    def test_write_rebuilds_even_when_body_raises(self):
        store = XMLStore()
        store.load("a.xml", DOC)
        gate = StoreGate(store)
        with pytest.raises(RuntimeError):
            with gate.write() as st:
                st.load("b.xml", DOC)
                raise RuntimeError("mutation step failed")
        # gate still released and rebuilt; readers are not deadlocked
        assert store._inverted is not None
        with gate.read() as generation:
            assert generation == store.generation
