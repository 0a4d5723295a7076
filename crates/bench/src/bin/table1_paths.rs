//! Regenerates **Table 1** (and the Fig. 2 mapping summary): the paths
//! followed by the first eight data sets of Example A.

use repwf_core::fixtures::example_a;
use repwf_core::paths::{instance_num_paths, paths};

fn main() {
    let inst = example_a();
    println!("Example A mapping (Fig. 2):");
    for i in 0..inst.num_stages() {
        let procs: Vec<String> = inst.mapping.procs(i).iter().map(|u| format!("P{u}")).collect();
        println!("  S{i} -> {}", procs.join(", "));
    }
    let m = instance_num_paths(&inst).expect("small lcm");
    println!("\nProposition 1: m = lcm(1,2,3,1) = {m} distinct paths\n");
    println!("Table 1: paths followed by the first input data");
    println!("{:<12} Path in the system", "Input data");
    for (j, path) in paths(&inst, 8).enumerate() {
        let hops: Vec<String> = path.iter().map(|u| format!("P{u}")).collect();
        println!("{:<12} {}", j, hops.join(" -> "));
    }
    println!("\n(data set i takes the same path as data set i - {m})");
}
