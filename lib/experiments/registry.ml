type entry = { id : string; title : string; plan : ?quick:bool -> unit -> Plan.t }

let all =
  [
    { id = "fig1"; title = "Figure 1: message-count model"; plan = Fig1.plan };
    { id = "fig2"; title = "Figure 2: counting-network throughput"; plan = Fig2.plan };
    { id = "fig3"; title = "Figure 3: counting-network bandwidth"; plan = Fig3.plan };
    { id = "table1"; title = "Table 1: B-tree throughput (think 0)"; plan = Table1.plan };
    { id = "table2"; title = "Table 2: B-tree bandwidth (think 0)"; plan = Table2.plan };
    { id = "table3"; title = "Table 3: B-tree throughput (think 10000)"; plan = Table3.plan };
    { id = "table4"; title = "Table 4: B-tree bandwidth (think 10000)"; plan = Table4.plan };
    { id = "table5"; title = "Table 5: migration cost breakdown"; plan = Table5.plan };
    { id = "fanout10"; title = "S4.2: fanout-10 B-tree"; plan = Fanout10.plan };
    { id = "ablations"; title = "Ablations of the design choices"; plan = Ablations.plan };
    { id = "dht"; title = "Extension: hash table across mechanisms"; plan = Dht_bench.plan };
    {
      id = "objmig";
      title = "Extension: object migration vs computation migration";
      plan = Objmig_bench.plan;
    };
    {
      id = "dht_zipf";
      title = "Extension: Zipf-skewed DHT traffic (hot keys at scale)";
      plan = Dht_zipf.plan;
    };
    {
      id = "social_graph";
      title = "Extension: social-graph traversal at scale";
      plan = Social_bench.plan;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run ?quick ?pool entry = Plan.execute ?pool (entry.plan ?quick ())
