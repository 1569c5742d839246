"""repro -- a reproduction of WiscSort (PVLDB 16(9), 2023).

WiscSort is a BRAID-conscious external sorting system for
byte-addressable storage (PMEM, CXL memory-semantic SSDs).  This
package reproduces the full system on a simulated BRAID device: the
device model exposes the five BRAID properties (Byte addressability,
Random-read performance, Asymmetric read/write cost, read-write
Interference, Device-constrained concurrency) as calibrated parameters,
and every sorting system moves real bytes while accruing simulated time.

Quickstart::

    from repro import Machine, pmem_profile, generate_dataset, WiscSort

    machine = Machine(profile=pmem_profile())
    data = generate_dataset(machine, "input", n_records=100_000)
    result = WiscSort().run(machine, data)
    print(result.summary())
"""

from repro.baselines import (
    ExternalMergeSort,
    ModifiedKeySort,
    PMSort,
    PMSortPlus,
    SampleSort,
)
from repro.core import (
    ConcurrencyModel,
    IndexMap,
    NaturalRunWiscSort,
    SortConfig,
    SortResult,
    SortSystem,
    ThreadPoolController,
    WiscSort,
    WiscSortKLV,
)
from repro.calibrate import CalibrationResult, calibrate_device
from repro.device import (
    BraidRateModel,
    DeviceProfile,
    DeviceStats,
    HostModel,
    InterferenceModel,
    Pattern,
    PROFILE_FACTORIES,
    ScalingCurve,
    bard_device_profile,
    bd_device_profile,
    block_ssd_profile,
    brd_device_profile,
    dram_profile,
    pmem_profile,
)
from repro.errors import (
    ConfigError,
    DramBudgetError,
    RecordFormatError,
    ReproError,
    SimulationError,
    StorageError,
    ValidationError,
)
from repro.errors import UnknownSystemError
from repro.machine import Machine
from repro import api
from repro.api import RunOptions
from repro.cluster import (
    AdmissionPolicy,
    Cluster,
    ClusterStats,
    Job,
    SLO,
    ServiceReport,
    ShardedFile,
    ShardedWiscSort,
    SortService,
    generate_cluster_dataset,
    parse_slo,
)
from repro.query import JoinResult, QueryResult, SortedIndex, indexmap_join
from repro.registry import (
    available,
    create_system,
    get_experiment,
    get_policy,
    get_profile,
    get_system,
    register_experiment,
    register_policy,
    register_profile,
    register_system,
)
from repro.core.compression import CompressionModel, estimate_benefit
from repro.records import (
    KLVFormat,
    RecordFormat,
    generate_dataset,
    generate_klv_dataset,
    validate_sorted_file,
    validate_sorted_klv,
)
from repro.workloads import (
    ArrivalProcess,
    BackgroundClients,
    BurstyArrivals,
    JobSpec,
    PoissonArrivals,
    TraceArrivals,
    sortbenchmark_records_for_gb,
    stream_fingerprint,
)

__version__ = "1.0.0"

__all__ = [
    # machine & device model
    "Machine",
    "DeviceProfile",
    "HostModel",
    "ScalingCurve",
    "InterferenceModel",
    "Pattern",
    "BraidRateModel",
    "DeviceStats",
    "pmem_profile",
    "dram_profile",
    "block_ssd_profile",
    "bd_device_profile",
    "brd_device_profile",
    "bard_device_profile",
    "PROFILE_FACTORIES",
    # sorting systems
    "WiscSort",
    "WiscSortKLV",
    "NaturalRunWiscSort",
    "ExternalMergeSort",
    "ModifiedKeySort",
    "PMSort",
    "PMSortPlus",
    "SampleSort",
    "SortSystem",
    "SortConfig",
    "SortResult",
    "ConcurrencyModel",
    "IndexMap",
    "ThreadPoolController",
    "CalibrationResult",
    "calibrate_device",
    # records & workloads
    "RecordFormat",
    "KLVFormat",
    "generate_dataset",
    "generate_klv_dataset",
    "validate_sorted_file",
    "validate_sorted_klv",
    "BackgroundClients",
    "sortbenchmark_records_for_gb",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "JobSpec",
    "stream_fingerprint",
    # late materialization & compression extensions (paper Sec 5)
    "SortedIndex",
    "QueryResult",
    "indexmap_join",
    "JoinResult",
    "CompressionModel",
    "estimate_benefit",
    # facade & registry
    "api",
    "RunOptions",
    "available",
    "create_system",
    "get_experiment",
    "get_policy",
    "get_profile",
    "get_system",
    "register_experiment",
    "register_policy",
    "register_profile",
    "register_system",
    # cluster (scale-out & service)
    "AdmissionPolicy",
    "Cluster",
    "ClusterStats",
    "Job",
    "SLO",
    "ServiceReport",
    "ShardedFile",
    "ShardedWiscSort",
    "SortService",
    "generate_cluster_dataset",
    "parse_slo",
    # errors
    "ReproError",
    "SimulationError",
    "StorageError",
    "RecordFormatError",
    "ValidationError",
    "ConfigError",
    "DramBudgetError",
    "UnknownSystemError",
]
