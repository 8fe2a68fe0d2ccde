"""Symantec-like spam-analysis workload (§7.2).

The paper's real-world workload analyses spam e-mail data: periodically
arriving JSON files collected by spam traps (mail body language, origin IP and
country, responsible bot, ...), CSV outputs of classification/clustering
workflows (one record per e-mail with assigned classes and scores), and a
pre-existing relational table in a DBMS.  Fifty queries touch the datasets in
progressively mixed combinations: BIN, CSV, JSON, Bin⋈CSV, Bin⋈JSON, CSV⋈JSON
and Bin⋈CSV⋈JSON, performing selections, 2- and 3-way joins, unnests of JSON
arrays, groupings and aggregates, with projectivity 1–9 fields and selectivity
roughly 1–25 %.

The original feed is proprietary, so this module generates a synthetic
equivalent with the same shape (same formats, arbitrary JSON field order,
shared ``mail_id`` join key, a nested ``urls`` array for unnests) and defines
the 50-query workload over it as :class:`~repro.workloads.query_spec.QuerySpec`
objects grouped into the same seven phases as Figure 14.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.core import types as t
from repro.storage.binary_format import write_column_table
from repro.workloads.query_spec import (
    GroupBySpec,
    JoinSpec,
    QuerySpec,
    TableRef,
    UnnestSpec,
    agg,
    col,
    count_star,
    filt,
)

_COUNTRIES = ["US", "CN", "RU", "BR", "IN", "DE", "FR", "GB", "NL", "CH"]
_LANGUAGES = ["en", "ru", "zh", "es", "pt", "de"]
_BOTS = ["rustock", "cutwail", "grum", "kelihos", "necurs", "unknown"]
_LABELS = ["pharma", "phishing", "malware", "dating", "casino", "replica"]

SPAM_BINARY_SCHEMA = t.make_schema(
    {
        "record_id": "int",
        "mail_id": "int",
        "day": "int",
        "src_asn": "int",
        "bytes": "int",
        "threat_level": "int",
        "customer": "int",
    }
)

#: Schema of the spam-trap JSON feed (arbitrary field order, nested origin
#: record, nested ``urls`` array).
SPAM_JSON_SCHEMA = t.make_schema(
    {
        "mail_id": "int",
        "lang": "string",
        "origin": {"ip": "string", "country": "string"},
        "bot": "string",
        "size_bytes": "int",
        "day": "int",
        "subject_len": "int",
        "body_words": "int",
        "urls": [{"domain": "string", "score": "float"}],
    }
)

#: Schema of the classification/clustering CSV output.
CLASSIFICATION_CSV_SCHEMA = t.make_schema(
    {
        "row_id": "int",
        "mail_id": "int",
        "class_spam": "int",
        "class_campaign": "int",
        "score": "float",
        "day": "int",
        "label": "string",
        "cluster": "int",
    }
)


@dataclass
class SymantecFiles:
    """Paths and sizes of one generated Symantec-like instance."""

    json_path: str
    csv_path: str
    binary_dir: str
    num_json: int
    num_csv: int
    num_binary: int
    num_days: int = 30


def materialize(
    directory: str,
    num_json: int = 2_000,
    num_csv: int = 8_000,
    num_binary: int = 10_000,
    num_days: int = 30,
    seed: int = 1234,
) -> SymantecFiles:
    """Generate the three datasets of the workload into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.RandomState(seed)

    json_path = os.path.join(directory, "spam_mails.json")
    _write_spam_json(json_path, num_json, num_days, rng)

    csv_path = os.path.join(directory, "classification.csv")
    _write_classification_csv(csv_path, num_csv, num_json, num_days, rng)

    binary_dir = os.path.join(directory, "mail_log_columns")
    _write_binary_table(binary_dir, num_binary, num_json, num_days, rng)

    return SymantecFiles(
        json_path=json_path,
        csv_path=csv_path,
        binary_dir=binary_dir,
        num_json=num_json,
        num_csv=num_csv,
        num_binary=num_binary,
        num_days=num_days,
    )


def _write_spam_json(path: str, count: int, num_days: int, rng: np.random.RandomState) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for mail_id in range(count):
            urls = [
                {
                    "domain": f"d{int(rng.randint(0, 500))}.example",
                    "score": float(np.round(rng.uniform(0, 1), 3)),
                }
                for _ in range(int(rng.randint(0, 4)))
            ]
            record = {
                "mail_id": int(mail_id),
                "lang": _LANGUAGES[int(rng.randint(0, len(_LANGUAGES)))],
                "origin": {
                    "ip": f"10.{int(rng.randint(0, 256))}.{int(rng.randint(0, 256))}."
                          f"{int(rng.randint(0, 256))}",
                    "country": _COUNTRIES[int(rng.randint(0, len(_COUNTRIES)))],
                },
                "bot": _BOTS[int(rng.randint(0, len(_BOTS)))],
                "size_bytes": int(rng.randint(200, 100_000)),
                "day": int(rng.randint(0, num_days)),
                "subject_len": int(rng.randint(5, 120)),
                "body_words": int(rng.randint(10, 2_000)),
                "urls": urls,
            }
            # Arbitrary field order per object, as in the real feed.
            names = list(record)
            rng.shuffle(names)
            shuffled = {name: record[name] for name in names}
            handle.write(json.dumps(shuffled) + "\n")


def _write_classification_csv(
    path: str, count: int, num_mails: int, num_days: int, rng: np.random.RandomState
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            "row_id,mail_id,class_spam,class_campaign,score,day,label,cluster\n"
        )
        for row in range(count):
            handle.write(
                f"{row},"
                f"{int(rng.randint(0, max(num_mails, 1)))},"
                f"{int(rng.randint(0, 2))},"
                f"{int(rng.randint(0, 40))},"
                f"{float(np.round(rng.uniform(0, 1), 4))},"
                f"{int(rng.randint(0, num_days))},"
                f"{_LABELS[int(rng.randint(0, len(_LABELS)))]},"
                f"{int(rng.randint(0, 100))}\n"
            )


def _write_binary_table(
    directory: str, count: int, num_mails: int, num_days: int, rng: np.random.RandomState
) -> None:
    columns = {
        "record_id": np.arange(count, dtype=np.int64),
        "mail_id": rng.randint(0, max(num_mails, 1), size=count).astype(np.int64),
        "day": rng.randint(0, num_days, size=count).astype(np.int64),
        "src_asn": rng.randint(1, 65_000, size=count).astype(np.int64),
        "bytes": rng.randint(200, 1_000_000, size=count).astype(np.int64),
        "threat_level": rng.randint(0, 5, size=count).astype(np.int64),
        "customer": rng.randint(0, 50, size=count).astype(np.int64),
    }
    write_column_table(directory, columns, SPAM_BINARY_SCHEMA)


# ---------------------------------------------------------------------------
# The 50-query workload
# ---------------------------------------------------------------------------

#: Dataset aliases used by every query.
BIN, CSV, JSN = "m", "c", "j"

#: Phase labels, in the order of Figure 14.
PHASES = ("BIN", "CSV", "JSON", "BinCSV", "BinJSON", "CSVJSON", "BINCSVJSON")


@dataclass
class WorkloadQuery:
    """One query of the Symantec workload: its phase and its specification."""

    index: int
    phase: str
    spec: QuerySpec


def symantec_workload(files: SymantecFiles) -> list[WorkloadQuery]:
    """Build the 50-query workload over a generated instance.

    Dataset names used: ``mail_log`` (binary), ``classification`` (CSV) and
    ``spam_mails`` (JSON); thresholds are scaled from the instance sizes so
    selectivities stay in the paper's 1–25 % range.
    """
    bin_table = TableRef("mail_log", BIN)
    csv_table = TableRef("classification", CSV)
    json_table = TableRef("spam_mails", JSN)
    day_cut = max(files.num_days // 4, 1)
    queries: list[QuerySpec] = []

    # --- Q1-Q8: binary only ----------------------------------------------------
    queries += [
        QuerySpec("Q1", [bin_table], [count_star()], [filt(BIN, "day", "<", day_cut)]),
        QuerySpec("Q2", [bin_table], [agg("max", BIN, "bytes"), count_star()],
                  [filt(BIN, "threat_level", ">=", 3)]),
        QuerySpec("Q3", [bin_table], [agg("sum", BIN, "bytes"), agg("avg", BIN, "bytes")],
                  [filt(BIN, "day", "<", day_cut), filt(BIN, "threat_level", ">=", 2)]),
        QuerySpec("Q4", [bin_table],
                  [col(BIN, "day"), count_star(), agg("max", BIN, "bytes")],
                  [filt(BIN, "threat_level", ">=", 3)],
                  group_by=[GroupBySpec(BIN, ("day",))]),
        QuerySpec("Q5", [bin_table],
                  [col(BIN, "customer"), agg("sum", BIN, "bytes")],
                  [filt(BIN, "day", "<", day_cut * 2)],
                  group_by=[GroupBySpec(BIN, ("customer",))]),
        QuerySpec("Q6", [bin_table], [agg("min", BIN, "bytes"), agg("max", BIN, "bytes"),
                                      agg("avg", BIN, "bytes"), count_star()],
                  [filt(BIN, "src_asn", "<", 10_000)]),
        QuerySpec("Q7", [bin_table],
                  [col(BIN, "threat_level"), count_star()],
                  [filt(BIN, "day", "<", day_cut)],
                  group_by=[GroupBySpec(BIN, ("threat_level",))]),
        QuerySpec("Q8", [bin_table], [count_star()],
                  [filt(BIN, "record_id", "<", max(files.num_binary // 100, 1))]),
    ]

    # --- Q9-Q15: CSV only --------------------------------------------------------
    queries += [
        QuerySpec("Q9", [csv_table], [count_star(), agg("avg", CSV, "score")],
                  [filt(CSV, "class_spam", "=", 1)]),
        QuerySpec("Q10", [csv_table], [agg("max", CSV, "score"), count_star()],
                  [filt(CSV, "day", "<", day_cut)]),
        QuerySpec("Q11", [csv_table], [agg("sum", CSV, "score")],
                  [filt(CSV, "class_campaign", "<", 10)]),
        QuerySpec("Q12", [csv_table], [count_star()],
                  [filt(CSV, "label", "=", "pharma"), filt(CSV, "score", ">", 0.5)]),
        QuerySpec("Q13", [csv_table],
                  [col(CSV, "label"), count_star()],
                  [filt(CSV, "class_spam", "=", 1)],
                  group_by=[GroupBySpec(CSV, ("label",))]),
        QuerySpec("Q14", [csv_table],
                  [col(CSV, "day"), count_star(), agg("avg", CSV, "score")],
                  [filt(CSV, "class_spam", "=", 1)],
                  group_by=[GroupBySpec(CSV, ("day",))]),
        QuerySpec("Q15", [csv_table], [agg("min", CSV, "score"), agg("max", CSV, "score"),
                                       agg("avg", CSV, "score")],
                  [filt(CSV, "cluster", "<", 25)]),
    ]

    # --- Q16-Q25: JSON only ----------------------------------------------------------
    queries += [
        QuerySpec("Q16", [json_table], [count_star(), agg("avg", JSN, "size_bytes")],
                  [filt(JSN, "day", "<", day_cut)]),
        QuerySpec("Q17", [json_table], [agg("max", JSN, "size_bytes"), count_star()],
                  [filt(JSN, "subject_len", "<", 40)]),
        QuerySpec("Q18", [json_table], [count_star()],
                  [filt(JSN, "lang", "=", "ru"), filt(JSN, "size_bytes", ">", 1_000)]),
        QuerySpec("Q19", [json_table],
                  [col(JSN, "origin", "country"), count_star()],
                  [filt(JSN, "day", "<", day_cut * 2)],
                  group_by=[GroupBySpec(JSN, ("origin", "country"))]),
        QuerySpec("Q20", [json_table], [agg("sum", JSN, "body_words")],
                  [filt(JSN, "subject_len", ">", 60)]),
        QuerySpec("Q21", [json_table], [count_star()],
                  [filt(JSN, "bot", "=", "necurs")]),
        QuerySpec("Q22", [json_table],
                  [agg("avg", "u", "score", output="avg_url_score")],
                  [],
                  unnest=UnnestSpec(JSN, ("urls",), "u")),
        QuerySpec("Q23", [json_table], [count_star()],
                  [filt("u", "score", ">", 0.8)],
                  unnest=UnnestSpec(JSN, ("urls",), "u")),
        QuerySpec("Q24", [json_table],
                  [col(JSN, "bot"), count_star(), agg("avg", JSN, "size_bytes")],
                  [filt(JSN, "day", "<", day_cut * 3)],
                  group_by=[GroupBySpec(JSN, ("bot",))]),
        QuerySpec("Q25", [json_table],
                  [agg("min", JSN, "size_bytes"), agg("max", JSN, "size_bytes"),
                   agg("avg", JSN, "body_words"), count_star()],
                  [filt(JSN, "subject_len", "<", 80)]),
    ]

    # --- Q26-Q30: binary ⋈ CSV -----------------------------------------------------------
    join_bin_csv = JoinSpec(BIN, ("mail_id",), CSV, ("mail_id",))
    queries += [
        QuerySpec("Q26", [bin_table, csv_table], [count_star()],
                  [filt(BIN, "day", "<", day_cut), filt(CSV, "class_spam", "=", 1)],
                  joins=[join_bin_csv]),
        QuerySpec("Q27", [bin_table, csv_table],
                  [agg("sum", BIN, "bytes"), agg("avg", CSV, "score")],
                  [filt(BIN, "threat_level", ">=", 3)],
                  joins=[join_bin_csv]),
        QuerySpec("Q28", [bin_table, csv_table], [count_star()],
                  [filt(CSV, "label", "=", "phishing"), filt(BIN, "day", "<", day_cut * 2)],
                  joins=[join_bin_csv]),
        QuerySpec("Q29", [bin_table, csv_table], [count_star(), agg("max", CSV, "score")],
                  [filt(BIN, "record_id", "<", max(files.num_binary // 50, 1))],
                  joins=[join_bin_csv]),
        QuerySpec("Q30", [bin_table, csv_table],
                  [col(CSV, "label"), count_star()],
                  [filt(BIN, "threat_level", ">=", 2)],
                  joins=[join_bin_csv],
                  group_by=[GroupBySpec(CSV, ("label",))]),
    ]

    # --- Q31-Q35: binary ⋈ JSON --------------------------------------------------------------
    join_bin_json = JoinSpec(BIN, ("mail_id",), JSN, ("mail_id",))
    queries += [
        QuerySpec("Q31", [bin_table, json_table], [count_star()],
                  [filt(BIN, "day", "<", day_cut), filt(JSN, "lang", "=", "en")],
                  joins=[join_bin_json]),
        QuerySpec("Q32", [bin_table, json_table],
                  [agg("sum", BIN, "bytes"), agg("avg", JSN, "size_bytes")],
                  [filt(JSN, "subject_len", "<", 50)],
                  joins=[join_bin_json]),
        QuerySpec("Q33", [bin_table, json_table],
                  [col(JSN, "origin", "country"), count_star()],
                  [filt(BIN, "threat_level", ">=", 3)],
                  joins=[join_bin_json],
                  group_by=[GroupBySpec(JSN, ("origin", "country"))]),
        QuerySpec("Q34", [bin_table, json_table], [count_star(), agg("max", BIN, "bytes")],
                  [filt(JSN, "bot", "=", "rustock")],
                  joins=[join_bin_json]),
        QuerySpec("Q35", [bin_table, json_table],
                  [agg("avg", JSN, "body_words"), count_star()],
                  [filt(BIN, "day", "<", day_cut * 2), filt(JSN, "size_bytes", ">", 5_000)],
                  joins=[join_bin_json]),
    ]

    # --- Q36-Q40: CSV ⋈ JSON -------------------------------------------------------------------
    join_csv_json = JoinSpec(CSV, ("mail_id",), JSN, ("mail_id",))
    queries += [
        QuerySpec("Q36", [csv_table, json_table], [count_star()],
                  [filt(CSV, "class_spam", "=", 1), filt(JSN, "day", "<", day_cut)],
                  joins=[join_csv_json]),
        QuerySpec("Q37", [csv_table, json_table],
                  [agg("avg", CSV, "score"), agg("avg", JSN, "size_bytes")],
                  [filt(JSN, "lang", "=", "en")],
                  joins=[join_csv_json]),
        QuerySpec("Q38", [csv_table, json_table],
                  [col(JSN, "bot"), count_star()],
                  [filt(CSV, "score", ">", 0.7)],
                  joins=[join_csv_json],
                  group_by=[GroupBySpec(JSN, ("bot",))]),
        QuerySpec("Q39", [csv_table, json_table], [count_star(), agg("max", CSV, "score")],
                  [filt(JSN, "subject_len", "<", 30)],
                  joins=[join_csv_json]),
        QuerySpec("Q40", [csv_table, json_table],
                  [agg("sum", CSV, "score"), count_star()],
                  [filt(CSV, "class_campaign", "<", 5), filt(JSN, "day", "<", day_cut * 2)],
                  joins=[join_csv_json]),
    ]

    # --- Q41-Q50: binary ⋈ CSV ⋈ JSON ------------------------------------------------------------
    three_way = [join_bin_csv, join_bin_json]
    queries += [
        QuerySpec("Q41", [bin_table, csv_table, json_table], [count_star()],
                  [filt(BIN, "day", "<", day_cut), filt(CSV, "class_spam", "=", 1)],
                  joins=list(three_way)),
        QuerySpec("Q42", [bin_table, csv_table, json_table],
                  [agg("sum", BIN, "bytes"), agg("avg", CSV, "score")],
                  [filt(JSN, "lang", "=", "en")],
                  joins=list(three_way)),
        QuerySpec("Q43", [bin_table, csv_table, json_table],
                  [col(JSN, "origin", "country"), count_star()],
                  [filt(BIN, "threat_level", ">=", 3)],
                  joins=list(three_way),
                  group_by=[GroupBySpec(JSN, ("origin", "country"))]),
        QuerySpec("Q44", [bin_table, csv_table, json_table],
                  [count_star(), agg("max", JSN, "size_bytes")],
                  [filt(CSV, "label", "=", "malware")],
                  joins=list(three_way)),
        QuerySpec("Q45", [bin_table, csv_table, json_table],
                  [agg("avg", JSN, "body_words"), agg("avg", CSV, "score"), count_star()],
                  [filt(BIN, "day", "<", day_cut * 2)],
                  joins=list(three_way)),
        QuerySpec("Q46", [bin_table, csv_table, json_table], [count_star()],
                  [filt(JSN, "bot", "=", "cutwail"), filt(CSV, "class_spam", "=", 1)],
                  joins=list(three_way)),
        QuerySpec("Q47", [bin_table, csv_table, json_table],
                  [col(CSV, "label"), count_star(), agg("sum", BIN, "bytes")],
                  [filt(JSN, "day", "<", day_cut * 3)],
                  joins=list(three_way),
                  group_by=[GroupBySpec(CSV, ("label",))]),
        QuerySpec("Q48", [bin_table, csv_table, json_table],
                  [agg("max", BIN, "bytes"), agg("max", CSV, "score"),
                   agg("max", JSN, "size_bytes")],
                  [filt(BIN, "threat_level", ">=", 2)],
                  joins=list(three_way)),
        QuerySpec("Q49", [bin_table, csv_table, json_table], [count_star()],
                  [filt(CSV, "score", ">", 0.9), filt(JSN, "subject_len", "<", 40)],
                  joins=list(three_way)),
        QuerySpec("Q50", [bin_table, csv_table, json_table],
                  [col(JSN, "lang"), count_star(), agg("avg", CSV, "score")],
                  [filt(BIN, "day", "<", day_cut * 2)],
                  joins=list(three_way),
                  group_by=[GroupBySpec(JSN, ("lang",))]),
    ]

    phases = (
        ["BIN"] * 8 + ["CSV"] * 7 + ["JSON"] * 10 + ["BinCSV"] * 5
        + ["BinJSON"] * 5 + ["CSVJSON"] * 5 + ["BINCSVJSON"] * 10
    )
    return [
        WorkloadQuery(index=i + 1, phase=phase, spec=spec)
        for i, (phase, spec) in enumerate(zip(phases, queries))
    ]
