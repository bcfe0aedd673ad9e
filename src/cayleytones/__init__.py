"""Musical systems as Cayley graphs of Z_n.

Modular arithmetic and affine maps, graph metrics and isometries,
generalized chords/scales/circles for n = p*q, exhaustive counterpoint
dichotomy searches, and equal-temperament WAV rendering.
"""

from types import ModuleType as _ModuleType

from .audio import (
    SAMPLE_RATE,
    Envelope,
    InvalidEnvelopeError,
    RenderEvent,
    RenderPlan,
    SampleBuffer,
    ToneSpec,
    envelope_from_dict,
    note_frequency,
    pure_tone,
    read_wav,
    render,
    write_wav,
)
from .cayley import (
    MAX_MODULUS,
    CayleyGraph,
    GeneratorSet,
    GeneratorSetError,
    UnreachableVertexError,
    export_dot,
    is_isometry_bruteforce,
    is_isometry_by_generators,
)
from .counterpoint import (
    AmbiguousRefinementError,
    ConsonantSeed,
    Dichotomy,
    NoStrongDichotomyError,
    PartitionRecord,
    SearchReport,
    enumerate_weak_witnesses,
    extend_to_partitions,
    find_affine_for_partition,
    fux_dichotomy,
    maximal_consonant_extension,
    minimal_oriented_refinement,
    satisfies_strong,
    satisfies_weak,
    strong_search_report,
    sumset,
)
from .modular import (
    AffineMap,
    ModRing,
    fixed_points,
    is_involution,
    units,
)
from .music import (
    DYAD,
    MAJOR,
    MINOR,
    Chord,
    CircleOfFifths,
    IntervalRow,
    InvalidChordError,
    MusicalSystem,
    Scale,
    SystemValidationError,
    chord_catalog,
    chord_from_steps,
    circle_of_fifths,
    interval_table,
    largest_chord_within_octave,
    scale,
    system_from_factors,
    triad,
    validate_system,
)

__version__ = "0.1.0"

# The public names are the ones imported above; the submodules those imports
# bind on the package are not among them.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
