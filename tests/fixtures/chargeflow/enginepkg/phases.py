"""Shape: phase-opening orchestrators with out-of-phase charges."""


def orchestrate(items, tracker):
    with tracker.phase("load"):
        tracker.add_work(float(len(items)))
    tracker.add_work(1.0)
    with tracker.phase("work"):
        tracker.add_span(1.0)


def open_phase(tracker):
    with tracker.phase("inner"):
        tracker.add_work(1.0)


def delegate(tracker):
    open_phase(tracker)


def delegate_and_charge(tracker):
    open_phase(tracker)
    tracker.add_work(1.0)


def orchestrate_delegates(tracker):
    with tracker.phase("own"):
        tracker.add_span(1.0)
    delegate(tracker)  # phase-closed: every charge lands in "inner"
    delegate_and_charge(tracker)
