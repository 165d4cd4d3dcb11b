"""Seeded input generators for the benchmark workloads.

Every generator draws from a `random.Random` seeded by the caller and writes
plain files, so the same seed gives byte-identical inputs. Nothing here
imports the package: control ids come from the bundled catalog JSON or are
synthesized, and the program only ever sees the files written here.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GRADES = ("low", "medium", "high")
STAGE_LABELS = ("Essential", "Intermediate", "Advanced", "Full")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def bundled_json(root: Path, name: str) -> dict:
    with open(root / "src" / "ismaturity" / "data" / name, encoding="utf-8") as handle:
        return json.load(handle)


def bundled_control_ids(root: Path) -> list[str]:
    return [record["id"] for record in bundled_json(root, "catalog_default.json")["controls"]]


def _write_lines(path: Path, header: str, lines) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        handle.writelines(line + "\n" for line in lines)
    return path


def _score(rng: random.Random, bias: float) -> int:
    # Likert 1..5 pulled towards a per-control bias, so averages spread out.
    return min(5, max(1, round(bias + rng.gauss(0.0, 1.1))))


def write_survey(path: Path, rng: random.Random, respondents: int, control_ids: list[str]) -> Path:
    """Complete survey: every respondent scores every control."""
    bias = {cid: rng.uniform(1.5, 4.5) for cid in control_ids}
    lines = (
        f"resp-{r:05d},{cid},{_score(rng, bias[cid])}"
        for r in range(1, respondents + 1)
        for cid in control_ids
    )
    return _write_lines(path, "respondent_id,control_id,score", lines)


def write_ratings(path: Path, rng: random.Random, control_ids: list[str]) -> Path:
    lines = [f"{cid},{rng.choice(GRADES)},{rng.choice(GRADES)}" for cid in control_ids]
    return _write_lines(path, "control_id,probability,impact", lines)


def pick_exclusions(rng: random.Random, control_ids: list[str], count: int) -> dict[str, str]:
    chosen = sorted(rng.sample(control_ids, count))
    return {cid: f"not operated by this organization (case {rng.randrange(1000)})" for cid in chosen}


def write_applicability(path: Path, excluded: dict[str, str]) -> Path:
    lines = [f"{cid},false,{reason}" for cid, reason in excluded.items()]
    return _write_lines(path, "control_id,applicable,justification", lines)


def measured_levels(rng: random.Random, control_ids: list[str]) -> dict[str, int]:
    """Levels 0..5 around a per-organization maturity, so labels vary."""
    centre = rng.choice((2.5, 3.0, 3.5, 4.0))
    return {cid: min(5, max(0, round(centre + rng.gauss(0.0, 0.9)))) for cid in control_ids}


def write_measurements(path: Path, levels: dict[str, int]) -> Path:
    return _write_lines(path, "control_id,level", (f"{cid},{level}" for cid, level in levels.items()))


def synthetic_catalog(rng: random.Random, controls: int, mean_chain: int = 4) -> dict:
    """Catalog document with ids inside A.5..A.18 and prerequisite chains.

    Controls are cut into chains of 2..2*mean_chain-2 members in a shuffled
    order; consecutive members form prerequisite -> dependent edges, so the
    graph is acyclic and has about controls * (1 - 1/mean_chain) edges.
    """
    universe = [(s, o, c) for s in range(5, 19) for o in range(1, 16) for c in range(1, 21)]
    ids = [f"A.{s}.{o}.{c}" for s, o, c in sorted(rng.sample(universe, controls))]
    records = [
        {
            "id": cid,
            "title": f"Synthetic control {cid}",
            "section_name": f"Section {cid.split('.')[1]}",
            "objective_text": f"Objective of {cid}",
        }
        for cid in ids
    ]
    rng.shuffle(records)
    order = ids[:]
    rng.shuffle(order)
    edges = []
    start = 0
    while start < len(order):
        length = rng.randint(2, 2 * mean_chain - 2)
        chain = order[start:start + length]
        edges.extend({"prerequisite": a, "dependent": b} for a, b in zip(chain, chain[1:]))
        start += length
    return {"format_version": "1", "kind": "control-catalog", "controls": records, "dependencies": edges}


def write_json(path: Path, document) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def permute_csv(source: Path, target: Path, rng: random.Random) -> Path:
    """Copy a CSV keeping its header first and shuffling the data rows."""
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    rng.shuffle(rows)
    return _write_lines(target, header, rows)


def model_organizations(rng: random.Random, control_ids: list[str], count: int) -> list[dict]:
    """Organizations for model mode: 0..5 seeded exclusions, levels for the rest."""
    organizations = []
    for number in range(count):
        excluded = pick_exclusions(rng, control_ids, rng.randint(0, 5))
        applicable = [cid for cid in control_ids if cid not in excluded]
        organizations.append(
            {"name": f"org-{number:04d}", "excluded": excluded, "measurements": measured_levels(rng, applicable)}
        )
    return organizations
