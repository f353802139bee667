//! Simulated counters pinned for the default seed.
//!
//! Host time may change from commit to commit; what the simulator computes
//! may not. Every cell's counters at seed 0 must equal the values below.
//! Digest values are deliberately not pinned: the digest format may change
//! without the simulation changing. Regenerate the table with
//! `--pin` only for a deliberate change of simulated behaviour.

use oasis_mgpu::RunReport;

/// The pinned fields of a report, as one canonical line.
pub fn counters(r: &RunReport) -> String {
    let u = &r.uvm;
    format!(
        "time_ps={} accesses={} local={} remote={} l1_tlb={}/{} l2_tlb={}/{} \
         l2_cache={}/{} far={} prot={} mig={} cmig={} dup={} coll={} rmap={} ideal={} \
         evict={} pins={} pref={} inval={} ecc={} retry={} nvlink={} pcie={} steps={}",
        r.total_time.as_ps(),
        r.accesses,
        r.local_accesses,
        r.remote_accesses,
        r.l1_tlb.0,
        r.l1_tlb.1,
        r.l2_tlb.0,
        r.l2_tlb.1,
        r.l2_cache.0,
        r.l2_cache.1,
        u.far_faults,
        u.protection_faults,
        u.migrations,
        u.counter_migrations,
        u.duplications,
        u.collapses,
        u.remote_maps,
        u.ideal_copies,
        u.evictions,
        u.thrash_pins,
        u.prefetches,
        u.invalidations,
        u.ecc_quarantines,
        u.fault_retries,
        r.nvlink_bytes,
        r.pcie_bytes,
        r.instrumentation.retired_steps,
    )
}

pub fn lookup(workload: &str, cell: &str) -> Option<&'static str> {
    PINS.iter()
        .find(|(w, c, _)| *w == workload && *c == cell)
        .map(|(_, _, v)| *v)
}

/// (workload, cell, counters) at seed 0.
const PINS: &[(&str, &str, &str)] = &[
    ("dnn-train", "LeNet/oasis", "time_ps=12583429976 accesses=232704 local=227218 remote=5486 l1_tlb=110728/121976 l2_tlb=41714/80262 l2_cache=9/227209 far=7913 prot=192 mig=6185 cmig=128 dup=974 coll=192 rmap=754 ideal=0 evict=0 pins=0 pref=0 inval=1522 ecc=0 retry=0 nvlink=9729792 pcie=25333760 steps=232704"),
    ("dnn-train", "VGG16/oasis", "time_ps=135926226231 accesses=746404 local=685132 remote=61272 l1_tlb=326280/420124 l2_tlb=790/419334 l2_cache=0/685132 far=116296 prot=10144 mig=54640 cmig=0 dup=31020 coll=10144 rmap=30636 ideal=0 evict=0 pins=0 pref=0 inval=40772 ecc=0 retry=0 nvlink=261958656 pcie=223805440 steps=746404"),
    ("dnn-train", "ResNet18/oasis", "time_ps=144221725716 accesses=877870 local=827194 remote=50676 l1_tlb=399854/478016 l2_tlb=1336/476680 l2_cache=0/827194 far=124704 prot=8370 mig=73596 cmig=0 dup=25770 coll=8370 rmap=25338 ideal=0 evict=0 pins=0 pref=0 inval=33700 ecc=0 retry=0 nvlink=217594368 pcie=301449216 steps=877870"),
    ("hpc-fit", "BFS/on-touch", "time_ps=118195308890 accesses=173680 local=173674 remote=6 l1_tlb=1188/172492 l2_tlb=16817/155675 l2_cache=2234/171440 far=117774 prot=0 mig=117770 cmig=0 dup=0 coll=0 rmap=4 ideal=0 evict=0 pins=4 pref=0 inval=110323 ecc=0 retry=0 nvlink=903742208 pcie=30515200 steps=173680"),
    ("hpc-fit", "C2D/on-touch", "time_ps=426664392046 accesses=1284828 local=1284828 remote=0 l1_tlb=1157091/127737 l2_tlb=0/127737 l2_cache=0/1284828 far=95472 prot=0 mig=95472 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=73786 ecc=0 retry=0 nvlink=604454912 pcie=88825856 steps=1284828"),
    ("hpc-fit", "FFT/on-touch", "time_ps=62573221974 accesses=294936 local=294936 remote=0 l1_tlb=221202/73734 l2_tlb=0/73734 l2_cache=94376/200560 far=50141 prot=0 mig=50141 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=37975 ecc=0 retry=0 nvlink=311091200 pcie=49831936 steps=294936"),
    ("hpc-fit", "I2C/on-touch", "time_ps=53388523520 accesses=235944 local=235944 remote=0 l1_tlb=186788/49156 l2_tlb=0/49156 l2_cache=0/235944 far=34410 prot=0 mig=34410 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=14748 ecc=0 retry=0 nvlink=120815616 pcie=80535552 steps=235944"),
    ("hpc-fit", "MM/on-touch", "time_ps=135687852675 accesses=325072 local=325072 remote=0 l1_tlb=249459/75613 l2_tlb=0/75613 l2_cache=5/325067 far=75613 prot=0 mig=75613 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=67584 ecc=0 retry=0 nvlink=553648128 pcie=32886784 steps=325072"),
    ("hpc-fit", "MT/on-touch", "time_ps=251354988164 accesses=616080 local=616080 remote=0 l1_tlb=546771/69309 l2_tlb=0/69309 l2_cache=0/616080 far=69309 prot=0 mig=69309 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=53907 ecc=0 retry=0 nvlink=441606144 pcie=63086592 steps=616080"),
    ("hpc-fit", "PR/on-touch", "time_ps=81435916920 accesses=325090 local=325006 remote=84 l1_tlb=223675/101415 l2_tlb=5237/96178 l2_cache=7646/317360 far=41344 prot=0 mig=41329 cmig=0 dup=0 coll=0 rmap=15 ideal=0 evict=0 pins=15 pref=0 inval=33557 ecc=0 retry=0 nvlink=274803200 pcie=31887360 steps=325090"),
    ("hpc-fit", "ST/on-touch", "time_ps=162248909474 accesses=730700 local=730700 remote=0 l1_tlb=562260/168440 l2_tlb=0/168440 l2_cache=0/730700 far=35782 prot=0 mig=35782 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=28080 ecc=0 retry=0 nvlink=230031360 pcie=31547392 steps=730700"),
    ("hpc-fit", "BFS/oasis", "time_ps=70729297690 accesses=173680 local=159010 remote=14670 l1_tlb=1188/172492 l2_tlb=16980/155512 l2_cache=2077/156933 far=31462 prot=2351 mig=7450 cmig=79 dup=18984 coll=2351 rmap=5028 ideal=0 evict=0 pins=1 pref=0 inval=16899 ecc=0 retry=0 nvlink=158041856 pcie=30515200 steps=173680"),
    ("hpc-fit", "C2D/oasis", "time_ps=330486222097 accesses=1284828 local=1065404 remote=219424 l1_tlb=1157091/127737 l2_tlb=0/127737 l2_cache=0/1065404 far=55346 prot=0 mig=21686 cmig=27278 dup=19952 coll=0 rmap=13708 ideal=0 evict=0 pins=0 pref=0 inval=48967 ecc=0 retry=0 nvlink=414994432 pcie=88825856 steps=1284828"),
    ("hpc-fit", "FFT/oasis", "time_ps=59748302448 accesses=294936 local=294922 remote=14 l1_tlb=221202/73734 l2_tlb=0/73734 l2_cache=94376/200546 far=30968 prot=17689 mig=12166 cmig=0 dup=18796 coll=17689 rmap=6 ideal=0 evict=0 pins=0 pref=0 inval=35747 ecc=0 retry=0 nvlink=153978624 pcie=49831936 steps=294936"),
    ("hpc-fit", "I2C/oasis", "time_ps=51887112544 accesses=235944 local=235944 remote=0 l1_tlb=186788/49156 l2_tlb=0/49156 l2_cache=0/235944 far=34410 prot=0 mig=19662 cmig=0 dup=14748 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=4916 ecc=0 retry=0 nvlink=120815616 pcie=80535552 steps=235944"),
    ("hpc-fit", "MM/oasis", "time_ps=52983484852 accesses=325072 local=325072 remote=0 l1_tlb=249459/75613 l2_tlb=0/75613 l2_cache=5/325067 far=26461 prot=0 mig=8029 cmig=0 dup=18432 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=6144 ecc=0 retry=0 nvlink=150994944 pcie=32886784 steps=325072"),
    ("hpc-fit", "MT/oasis", "time_ps=145812424114 accesses=616080 local=616080 remote=0 l1_tlb=546771/69309 l2_tlb=0/69309 l2_cache=0/616080 far=38505 prot=0 mig=15402 cmig=0 dup=23103 coll=0 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=7701 ecc=0 retry=0 nvlink=189259776 pcie=63086592 steps=616080"),
    ("hpc-fit", "PR/oasis", "time_ps=75088013271 accesses=325090 local=318082 remote=7008 l1_tlb=223695/101395 l2_tlb=8587/92808 l2_cache=7756/310326 far=26794 prot=8185 mig=7785 cmig=69 dup=17970 coll=8185 rmap=1039 ideal=0 evict=0 pins=0 pref=0 inval=27171 ecc=0 retry=0 nvlink=148672512 pcie=31887360 steps=325090"),
    ("hpc-fit", "ST/oasis", "time_ps=161750675153 accesses=730700 local=730700 remote=0 l1_tlb=562260/168440 l2_tlb=0/168440 l2_cache=0/730700 far=22102 prot=13680 mig=7702 cmig=0 dup=14400 coll=13680 rmap=0 ideal=0 evict=0 pins=0 pref=0 inval=28080 ecc=0 retry=0 nvlink=117964800 pcie=31547392 steps=730700"),
    ("hpc-oversub", "BFS/on-touch", "time_ps=127971462411 accesses=173680 local=173678 remote=2 l1_tlb=1191/172489 l2_tlb=16839/155650 l2_cache=2246/171432 far=127657 prot=0 mig=127656 cmig=0 dup=0 coll=0 rmap=1 ideal=0 evict=31189 pins=1 pref=0 inval=122216 ecc=0 retry=0 nvlink=745693440 pcie=277782528 steps=173680"),
    ("hpc-oversub", "C2D/on-touch", "time_ps=438154801680 accesses=1284828 local=1284828 remote=0 l1_tlb=1157091/127737 l2_tlb=0/127737 l2_cache=0/1284828 far=96648 prot=0 mig=96648 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=49358 pins=0 pref=0 inval=80948 ecc=0 retry=0 nvlink=258785280 pcie=468647936 steps=1284828"),
    ("hpc-oversub", "FFT/on-touch", "time_ps=93863501496 accesses=294936 local=294936 remote=0 l1_tlb=221202/73734 l2_tlb=0/73734 l2_cache=94376/200560 far=70863 prot=0 mig=70863 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=52743 pins=0 pref=0 inval=62671 ecc=0 retry=0 nvlink=81330176 pcie=465625088 steps=294936"),
    ("hpc-oversub", "I2C/on-touch", "time_ps=87495435520 accesses=235944 local=235944 remote=0 l1_tlb=186788/49156 l2_tlb=0/49156 l2_cache=0/235944 far=49156 prot=0 mig=49156 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=20756 pins=0 pref=0 inval=35504 ecc=0 retry=0 nvlink=120815616 pcie=225951744 steps=235944"),
    ("hpc-oversub", "MM/on-touch", "time_ps=137686311375 accesses=325072 local=325072 remote=0 l1_tlb=249459/75613 l2_tlb=0/75613 l2_cache=5/325067 far=75613 prot=0 mig=75613 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=14857 pins=0 pref=0 inval=70153 ecc=0 retry=0 nvlink=452984832 pcie=144072704 steps=325072"),
    ("hpc-oversub", "MT/on-touch", "time_ps=254717988164 accesses=616080 local=616080 remote=0 l1_tlb=546771/69309 l2_tlb=0/69309 l2_cache=0/616080 far=69309 prot=0 mig=69309 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=4482 pins=0 pref=0 inval=58389 ecc=0 retry=0 nvlink=441606144 pcie=81444864 steps=616080"),
    ("hpc-oversub", "PR/on-touch", "time_ps=141095645431 accesses=325090 local=325010 remote=80 l1_tlb=223684/101406 l2_tlb=5213/96193 l2_cache=7552/317458 far=96192 prot=0 mig=96178 cmig=0 dup=0 coll=0 rmap=14 ideal=0 evict=71925 pins=14 pref=0 inval=90731 ecc=0 retry=0 nvlink=153962496 pcie=611573760 steps=325090"),
    ("hpc-oversub", "ST/on-touch", "time_ps=225306165671 accesses=730700 local=730700 remote=0 l1_tlb=562260/168440 l2_tlb=0/168440 l2_cache=0/730700 far=95271 prot=0 mig=95271 cmig=0 dup=0 coll=0 rmap=0 ideal=0 evict=69535 pins=0 pref=0 inval=89811 ecc=0 retry=0 nvlink=166100992 pcie=591994880 steps=730700"),
    ("hpc-oversub", "BFS/oasis", "time_ps=129053284333 accesses=173680 local=162774 remote=10906 l1_tlb=1191/172489 l2_tlb=16934/155555 l2_cache=2099/160675 far=123206 prot=3051 mig=15356 cmig=16 dup=102301 coll=3051 rmap=5549 ideal=0 evict=100900 pins=0 pref=0 inval=124743 ecc=0 retry=0 nvlink=81401984 pcie=513661504 steps=173680"),
    ("hpc-oversub", "C2D/oasis", "time_ps=439550626935 accesses=1284828 local=1284828 remote=0 l1_tlb=1157091/127737 l2_tlb=0/127737 l2_cache=0/1284828 far=96648 prot=0 mig=57254 cmig=0 dup=39394 coll=0 rmap=0 ideal=0 evict=70908 pins=0 pref=0 inval=84850 ecc=0 retry=0 nvlink=86261760 pcie=555413504 steps=1284828"),
    ("hpc-oversub", "FFT/oasis", "time_ps=105034389032 accesses=294936 local=202798 remote=92138 l1_tlb=221201/73735 l2_tlb=30/73705 l2_cache=64772/138026 far=52310 prot=1785 mig=22599 cmig=5972 dup=12981 coll=1785 rmap=16730 ideal=0 evict=27309 pins=0 pref=0 inval=52304 ecc=0 retry=0 nvlink=66077440 pcie=229292288 steps=294936"),
    ("hpc-oversub", "I2C/oasis", "time_ps=88164535781 accesses=235944 local=235944 remote=0 l1_tlb=186784/49160 l2_tlb=0/49160 l2_cache=0/235944 far=49160 prot=0 mig=34408 cmig=0 dup=14752 coll=0 rmap=0 ideal=0 evict=22966 pins=0 pref=0 inval=40424 ecc=0 retry=0 nvlink=116293632 pcie=228229120 steps=235944"),
    ("hpc-oversub", "MM/oasis", "time_ps=139102689511 accesses=325072 local=325072 remote=0 l1_tlb=249459/75613 l2_tlb=0/75613 l2_cache=5/325067 far=75613 prot=0 mig=8029 cmig=0 dup=67584 coll=0 rmap=0 ideal=0 evict=57857 pins=0 pref=0 inval=76297 ecc=0 retry=0 nvlink=101924864 pcie=283914240 steps=325072"),
    ("hpc-oversub", "MT/oasis", "time_ps=259947750692 accesses=616080 local=616080 remote=0 l1_tlb=546771/69309 l2_tlb=0/69309 l2_cache=0/616080 far=69309 prot=0 mig=15402 cmig=0 dup=53907 coll=0 rmap=0 ideal=0 evict=47500 pins=0 pref=0 inval=66090 ecc=0 retry=0 nvlink=89350144 pcie=270757888 steps=616080"),
    ("hpc-oversub", "PR/oasis", "time_ps=145849455716 accesses=325090 local=285114 remote=39976 l1_tlb=223697/101393 l2_tlb=8349/93044 l2_cache=7572/277542 far=88887 prot=36 mig=59712 cmig=4235 dup=20993 coll=36 rmap=8182 ideal=0 evict=75224 pins=0 pref=0 inval=89728 ecc=0 retry=0 nvlink=40804352 pcie=579910144 steps=325090"),
    ("hpc-oversub", "ST/oasis", "time_ps=250593496618 accesses=730700 local=674042 remote=56658 l1_tlb=562234/168466 l2_tlb=0/168466 l2_cache=0/674042 far=95280 prot=74 mig=67287 cmig=6251 dup=14382 coll=74 rmap=13611 ideal=0 evict=74154 pins=0 pref=0 inval=102585 ecc=0 retry=0 nvlink=54253568 pcie=618604672 steps=730700"),
];
