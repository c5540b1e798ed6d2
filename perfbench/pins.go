package main

// pins holds the sha256 of the exp.WriteJSON encoding of every report a
// workload produces, by workload, simulation seed and operation.  The
// model is unvalidated, so these are a must-not-change digest, not
// targets: a speed-only change leaves every one of them identical.
var pins = map[string]map[uint64]map[string]string{
	"paper-cpu": {
		1997: {
			"table2":    "30a15f734c545836ea6857086bb5760eacf54f522d417285e4294545f8f87f72",
			"table3":    "77bef2635344921d9a0d48f1c0220e77d1dba49b8abd4373349534082d74e88b",
			"ablate":    "414f9ed21fa7ceb23326a6b7c978fe20826fb084ffd5e65b29e6b68087256c54",
			"options31": "7bd0dd4f89cc60c4289321c0455c47e10c75f5837bf662028533707350052b2f",
		},
		8191: {
			"table2":    "06ea872ddac5f11347ed97c191d54e11c4ce1670dd353e6edec21b979f8a0f77",
			"table3":    "ee6c1be2bb8f4fe2fd7e4de2293ceafbf3337508bb28adf48412ea76c48c48d4",
			"ablate":    "5da2fbc8433ed715885a37b5a331226193ef2e3be4a477b499cf6ca7ef03e060",
			"options31": "4f9e8a2464702a94efe2c52aff2423d9fbf258925a69052322f45dd90764f9f5",
		},
	},
	"paper-mem": {
		1997: {
			"holes":      "eb59d1f5cf6891c8b2b3d850369e10790f2ff7429d7e5a6f1991e7285d88212e",
			"curves":     "38188a5bb290843b49cfd64acff5a2b04d11a6ffdac3fe19f360b8e6ca7f0d21",
			"missratio":  "f0c489f28ce437bf3fe804000a190026cccbadfd249fca2b6edd390997199f63",
			"sweep":      "efa04b64dee705db399a1d9e5e03aa01a3bae7452a3afa25770c51b4a996084f",
			"threec":     "b963d045c2de36e6d8403cece2ed85f7c871e6bcfc5548af4764b8506a1027fd",
			"stddev":     "af2bcc022bba99aed06e22a59449635ae6eab5404374386a9eba59173932d543",
			"colassoc":   "3e6f29b899949406c62a4f65e7c8702470a8f925d704edcf24cf73b3f424e115",
			"fig1":       "de021d408c5e6eb93c134935f12f5259cb70b24c2d130399a0a6d7ec6838383d",
			"interleave": "5d9a6d5b6b3bdc9b9488cfc861c8c5cfb6d5a09d4e92f6d1d36de614cae815b2",
		},
		8191: {
			"holes":      "5704abe2efdb9d9841ae3b3b23aa2e82401c10ab765b9bca817d32fc31e5fd3c",
			"curves":     "2d2e3b90dcadec8848d552f9d7fc8d9abd230788bd476fa776215358d0545c5c",
			"missratio":  "e7e2cf05fc60ace56efae7a57fd3760666425b9792f92a6f85740289de8f865b",
			"sweep":      "974781e76fcec596b469ade6769d58cdc438eb58b3ace90913cebde9e3abc363",
			"threec":     "e856fd9024381dc6eb95a153721fc71a9a1fb49f44cc2a2d07315d65497370ea",
			"stddev":     "842631c6af1e847830b0ede5983d451448b003540e54aac054ee7ad012d6b6c4",
			"colassoc":   "87080028068f16834e0e1d2b0f097b01549a294030268766bd1e6b88383dbade",
			"fig1":       "1ecb18ecc0ce3a51e66b4974d7041892d0d3ebf26557781ef24a96eedc90a098",
			"interleave": "0ef0c3b2398cdf1325e5d0ab23500d325981921e1e7c18f8d016a41255a6bc69",
		},
	},
	"trace-ingest": {
		1997: {
			"replay_k1":  "844a327fa0a2fb116e17de442704bb1c0de602b8f037e896a57a75be470df508",
			"replay_k2":  "451461c008fce2d2d9ca5897116e43d4c0fb75adbaaf6c46f5d89046a23eebee",
			"threec_ext": "536f03a238a20ba9a3a2fdd4e83e09083756cd13f2a86ee2f6d9d9ea74b9e230",
		},
		8191: {
			"replay_k1":  "ed353201e08bd4f899725c5678b01820d70c28f5c0057b4dd0bb87ac5069d43a",
			"replay_k2":  "02787701f204fd6a214fdd672af81551c4d07c65ab04b635f7de8146ebcfb3e4",
			"threec_ext": "244226e6115929a5a63e7b218e1208c6311d53161d3088ab2866930b1de6c302",
		},
	},
	"serve-mix": {
		1997: {
			"stddev/seed=1997": "fc6a9eeff1c8c325700c1901f908bbea95ed31bc97faa775b27c8cb203597de0",
			"stddev/seed=1998": "b81ff04ed2674e1f2f3bccb8139bb3118ea23e2554f539f58e0a2a4560cdd0bf",
			"stddev/seed=1999": "155b1af4052dec56c40538deba872d7a7d830cf355b5665052e2acbdc546bb38",
			"stddev/seed=2000": "6cd625d2fc46cb777ca20b907df1c1e47f25fa7ead1059c48b2c516c707a9907",
			"stddev/seed=2001": "49e2e718a0523a3b067c5e293170392d38c1407d9b45d14db664fac84204efdd",
			"stddev/seed=2002": "08a216bd0a8399d79a49e6c35a06bfc4734284e24f7fc33a3d58c64897e7a1be",
			"stddev/seed=2003": "96fd34f2408e8c718d6f4e468cce27bda8587cbce49c86338bd41824e15a7729",
			"stddev/seed=2004": "bfb8def28517afdb8fd36af92a0a5bd45d39637c7db6be39b13aa31d20a209e3",
		},
		8191: {
			"stddev/seed=8191": "0b1d473377b11d1ec8e04f65cd4e59223615f4337dc8cd84ca81edba99cb3118",
			"stddev/seed=8192": "321577abd3c5a7e5a48c16c24a28b6a8db2b7b822fac50b6e9144f6752474f8b",
			"stddev/seed=8193": "c47a0550d2d0054a3d715796afc7d77d988ea17e8a0fd0d423b470d4320b59e2",
			"stddev/seed=8194": "aed566a5aab8be2c82dab6f9c72b41cead21c0d9d798543e121c46afb2d2bdda",
			"stddev/seed=8195": "9851cf2c5ca9de0b099bc5c0c2be13d075c83c027d6bfd74edb8502db1e63d56",
			"stddev/seed=8196": "7761b70a5dff8b3b8e381c62d1505ec109b1d49c020ee402204d7383019a4804",
			"stddev/seed=8197": "7e63d3def71f24ce95d7064da0ad286084f00e0a52978448081e985a9b7c7677",
			"stddev/seed=8198": "5a231e440060cd1cd6304580fee9b0c0bf7acdae6026873bf34d094c00062bdc",
		},
	},
}

// pinned returns the pinned digest of one report.
func pinned(workload string, simSeed uint64, op string) (string, bool) {
	d, ok := pins[workload][simSeed][op]
	return d, ok
}
