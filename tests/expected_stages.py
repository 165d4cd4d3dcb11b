"""Frozen expectations: default stage memberships and the company-a design.

These lists are typed out independently of the package's bundled data files
and of the company-a fixtures, all of which are maintained by hand; tests
compare computed results against them, so silent drift anywhere in the
pipeline, or in the data, fails a test instead of propagating. Keep them
literal.
"""

DEFAULT_ESSENTIAL = [
    "A.5.1.1", "A.6.1.1", "A.6.1.5", "A.6.2.2", "A.7.1.1", "A.7.2.1",
    "A.8.1.2", "A.8.1.3", "A.8.2.1", "A.8.2.3", "A.9.1.2", "A.9.2.1",
    "A.9.2.3", "A.9.2.4", "A.9.2.5", "A.9.4.2", "A.9.4.4", "A.11.1.5",
    "A.11.2.4", "A.11.2.5", "A.11.2.6", "A.11.2.7", "A.12.5.1", "A.12.6.2",
    "A.13.1.3", "A.15.1.3", "A.18.1.1", "A.18.1.2", "A.18.1.3", "A.18.1.4",
    "A.18.1.5",
]

DEFAULT_INTERMEDIATE = [
    "A.5.1.2", "A.6.1.2", "A.6.2.1", "A.7.2.2", "A.8.1.1", "A.8.3.1",
    "A.9.2.6", "A.9.4.3", "A.11.1.3", "A.11.2.2", "A.11.2.3", "A.12.1.3",
    "A.12.1.4", "A.12.2.1", "A.13.1.1", "A.13.2.1", "A.13.2.3", "A.14.1.1",
    "A.14.2.6", "A.15.1.1", "A.16.1.1", "A.16.1.2", "A.16.1.4", "A.16.1.5",
    "A.16.1.7", "A.17.1.1", "A.18.2.2",
]

DEFAULT_ADVANCED = [
    "A.7.2.3", "A.8.1.4", "A.8.2.2", "A.9.1.1", "A.9.3.1", "A.9.4.1",
    "A.9.4.5", "A.11.1.1", "A.11.1.2", "A.11.2.1", "A.11.2.9", "A.12.1.1",
    "A.12.1.2", "A.12.3.1", "A.12.4.1", "A.12.6.1", "A.12.7.1", "A.13.1.2",
    "A.13.2.4", "A.14.1.2", "A.14.1.3", "A.14.2.5", "A.14.2.9", "A.15.1.2",
    "A.15.2.1", "A.16.1.3", "A.17.2.1", "A.18.2.1", "A.18.2.3",
]

DEFAULT_FULL = [
    "A.6.1.3", "A.6.1.4", "A.7.1.2", "A.7.3.1", "A.8.3.2", "A.8.3.3",
    "A.9.2.2", "A.10.1.1", "A.10.1.2", "A.11.1.4", "A.11.1.6", "A.11.2.8",
    "A.12.4.2", "A.12.4.3", "A.12.4.4", "A.13.2.2", "A.14.2.1", "A.14.2.2",
    "A.14.2.3", "A.14.2.4", "A.14.2.7", "A.14.2.8", "A.14.3.1", "A.15.2.2",
    "A.16.1.6", "A.17.1.2", "A.17.1.3",
]

DEFAULT_SIZES = (31, 27, 29, 27)

# company a diverges from the default plan by these stage moves ...
CA_MOVES = {
    "A.5.1.2": ("Intermediate", "Essential"),
    "A.6.1.2": ("Intermediate", "Essential"),
    "A.6.1.5": ("Essential", "Intermediate"),
    "A.6.2.2": ("Essential", "Full"),
    "A.7.1.1": ("Essential", "Advanced"),
    "A.7.2.3": ("Advanced", "Full"),
    "A.11.1.2": ("Advanced", "Intermediate"),
    "A.18.1.4": ("Essential", "Intermediate"),
}

# ... plus three excluded development controls (11 differences in total).
CA_EXCLUDED = ["A.14.2.1", "A.14.2.6", "A.14.2.7"]

CA_SIZES = (29, 27, 28, 27)

# gated outcome designed into the fixtures
CA_LABEL_STAGE = "Intermediate"
CA_LABEL_DISPLAY = "3.30"
CA_LABEL_LINE = "Intermediate Stage, Maturity Level 3.30 (Defined)"
CA_STAGE_AVERAGES = {
    "Essential": ("101/29", "3.48"),
    "Intermediate": ("89/27", "3.30"),
    "Advanced": ("86/28", "3.07"),
    "Full": ("81/27", "3.00"),
}
CA_NAIVE = ("357/111", "3.22")
CA_FAILING = ["A.9.3.1", "A.14.1.3"]
CA_FAILING_LEVELS = {"A.9.3.1": 3, "A.14.1.3": 2}  # both required at 4
CA_PRIORITY_CONTROL = "A.9.2.3"

# model mode over the same measurements: the bundled plan gates earlier
CA_MODEL_LABEL_LINE = "Essential Stage, Maturity Level 3.42 (Defined)"
CA_MODEL_FAILING_INTERMEDIATE = ["A.13.2.3", "A.16.1.7"]


def default_stage_lists() -> dict[str, list[str]]:
    return {
        "Essential": DEFAULT_ESSENTIAL,
        "Intermediate": DEFAULT_INTERMEDIATE,
        "Advanced": DEFAULT_ADVANCED,
        "Full": DEFAULT_FULL,
    }


def company_a_stage_lists() -> dict[str, list[str]]:
    """Apply the frozen moves and exclusions to the frozen default lists."""
    stages = {label: set(members) for label, members in default_stage_lists().items()}
    for control, (before, after) in CA_MOVES.items():
        stages[before].remove(control)
        stages[after].add(control)
    for control in CA_EXCLUDED:
        for members in stages.values():
            members.discard(control)
    return {label: sorted(members, key=_id_key) for label, members in stages.items()}


def _id_key(text: str) -> tuple[int, int, int]:
    section, objective, control = text[2:].split(".")
    return int(section), int(objective), int(control)
