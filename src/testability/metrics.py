"""Metric vocabulary: the 37 class/test metrics and their design properties.

28 code metrics describe the production class, 6 test-effort metrics the
paired test class, and 3 test-quality metrics (line coverage L, branch
coverage B, mutation score M) come from a dynamic analysis and are only
ever ingested, never computed here.
"""

from __future__ import annotations

import enum


class DesignProperty(enum.Enum):
    SIZE = "Size"
    COMPLEXITY = "Complexity"
    INHERITANCE = "Inheritance"
    COUPLING = "Coupling"
    COHESION = "Cohesion"
    ENCAPSULATION = "Encapsulation"
    TEST_EFFORT = "TestEffort"
    TEST_QUALITY = "TestQuality"


class MetricId(enum.Enum):
    """Identifier of one metric column.

    The enum value is the canonical CSV column name (e.g. ``"T-LOC"``).
    """

    # Size
    LOC = "LOC"
    NBI = "NBI"
    LOCCOM = "LOCCOM"
    NPM = "NPM"
    NSTAM = "NSTAM"
    NOF = "NOF"
    NSTAF = "NSTAF"
    NMC = "NMC"
    NMCI = "NMCI"
    NMCE = "NMCE"
    # Complexity
    WMC = "WMC"
    AMC = "AMC"
    RFC = "RFC"
    # Inheritance
    DIT = "DIT"
    NOC = "NOC"
    MFA = "MFA"
    # Coupling
    CBO = "CBO"
    IC = "IC"
    CBM = "CBM"
    CA = "Ca"
    CE = "Ce"
    # Cohesion
    LCOM = "LCOM"
    LCOM3 = "LCOM3"
    CAM = "CAM"
    # Encapsulation
    DAM = "DAM"
    NPRIF = "NPRIF"
    NPRIM = "NPRIM"
    NPROM = "NPROM"
    # Test effort
    T_LOC = "T-LOC"
    T_NOT = "T-NOT"
    T_NOA = "T-NOA"
    T_NMC = "T-NMC"
    T_WMC = "T-WMC"
    T_AMC = "T-AMC"
    # Test quality
    L = "L"
    B = "B"
    M = "M"

    @property
    def column(self) -> str:
        """Canonical CSV column name."""
        return self.value


_GROUPS: dict[DesignProperty, tuple[MetricId, ...]] = {
    DesignProperty.SIZE: (
        MetricId.LOC, MetricId.NBI, MetricId.LOCCOM, MetricId.NPM,
        MetricId.NSTAM, MetricId.NOF, MetricId.NSTAF, MetricId.NMC,
        MetricId.NMCI, MetricId.NMCE,
    ),
    DesignProperty.COMPLEXITY: (MetricId.WMC, MetricId.AMC, MetricId.RFC),
    DesignProperty.INHERITANCE: (MetricId.DIT, MetricId.NOC, MetricId.MFA),
    DesignProperty.COUPLING: (
        MetricId.CBO, MetricId.IC, MetricId.CBM, MetricId.CA, MetricId.CE,
    ),
    DesignProperty.COHESION: (MetricId.LCOM, MetricId.LCOM3, MetricId.CAM),
    DesignProperty.ENCAPSULATION: (
        MetricId.DAM, MetricId.NPRIF, MetricId.NPRIM, MetricId.NPROM,
    ),
    DesignProperty.TEST_EFFORT: (
        MetricId.T_LOC, MetricId.T_NOT, MetricId.T_NOA, MetricId.T_NMC,
        MetricId.T_WMC, MetricId.T_AMC,
    ),
    DesignProperty.TEST_QUALITY: (MetricId.L, MetricId.B, MetricId.M),
}

#: The 28 code metrics, in canonical column order.
CODE_METRICS: tuple[MetricId, ...] = (
    _GROUPS[DesignProperty.SIZE]
    + _GROUPS[DesignProperty.COMPLEXITY]
    + _GROUPS[DesignProperty.INHERITANCE]
    + _GROUPS[DesignProperty.COUPLING]
    + _GROUPS[DesignProperty.COHESION]
    + _GROUPS[DesignProperty.ENCAPSULATION]
)

#: The 6 test-effort metrics.
TEST_EFFORT_METRICS: tuple[MetricId, ...] = _GROUPS[DesignProperty.TEST_EFFORT]

#: The 3 test-quality metrics (never usable as features).
TEST_QUALITY_METRICS: tuple[MetricId, ...] = _GROUPS[DesignProperty.TEST_QUALITY]

#: The 34 independent variables: 28 code metrics + 6 test-effort metrics.
INDEPENDENT_VARIABLES: tuple[MetricId, ...] = CODE_METRICS + TEST_EFFORT_METRICS

#: All 37 metrics in canonical column order.
ALL_METRICS: tuple[MetricId, ...] = INDEPENDENT_VARIABLES + TEST_QUALITY_METRICS

#: Metrics whose values must be non-negative integers.
COUNT_METRICS: frozenset[MetricId] = frozenset({
    MetricId.LOC, MetricId.NBI, MetricId.NPM, MetricId.NSTAM, MetricId.NOF,
    MetricId.NSTAF, MetricId.NMC, MetricId.NMCI, MetricId.NMCE, MetricId.WMC,
    MetricId.RFC, MetricId.DIT, MetricId.NOC, MetricId.CBO, MetricId.IC,
    MetricId.CBM, MetricId.CA, MetricId.CE, MetricId.LCOM, MetricId.NPRIF,
    MetricId.NPRIM, MetricId.NPROM, MetricId.T_LOC, MetricId.T_NOT,
    MetricId.T_NOA, MetricId.T_NMC, MetricId.T_WMC,
})

#: Metrics constrained to [0, 1].
UNIT_INTERVAL_METRICS: frozenset[MetricId] = frozenset({
    MetricId.MFA, MetricId.DAM, MetricId.CAM,
    MetricId.L, MetricId.B, MetricId.M,
})

_BY_COLUMN: dict[str, MetricId] = {m.column: m for m in MetricId}


def metric_for_column(name: str) -> MetricId | None:
    """Resolve a canonical CSV column name, or None if it is not a metric."""
    return _BY_COLUMN.get(name)
